// Package app defines the replicated application interface executed by RBFT
// nodes, plus reference applications used by examples, tests and benchmarks.
package app

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"sync"

	"rbft/internal/types"
)

// Application is the deterministic state machine replicated by RBFT. Execute
// is invoked with requests in the total order decided by the master instance;
// it must be deterministic (identical inputs produce identical outputs and
// state on every node).
type Application interface {
	Execute(client types.ClientID, id types.RequestID, op []byte) []byte
}

// ConflictKeyer is the optional interface an Application implements to opt
// into parallel execution (internal/exec, docs/EXECUTION.md). Keys declares
// the state an operation touches: two operations conflict when one writes a
// key the other reads or writes. The contract is strict — Execute may only
// read state named in reads∪writes and only mutate state named in writes,
// for every possible op (including malformed ones; return nil,nil for an op
// that touches nothing). An undeclared access makes concurrent execution
// diverge across replicas. Applications that do not implement ConflictKeyer
// are applied serially, byte-identical to a scheduler-less node.
type ConflictKeyer interface {
	// Keys returns the read-set and write-set of op. It must be a pure
	// function of the op bytes and must not touch application state.
	Keys(op []byte) (reads, writes []string)
}

// ReadExecutor is the optional interface an Application implements to serve
// the speculative read-only fast path (docs/CLIENTS.md). ExecuteRead answers
// op against the current local state without going through ordering; it must
// be side-effect free. ok=false marks an op that is not a pure read — the
// node drops such a request and the client falls back to normal ordering.
// Because replicas answer at possibly different points in the execution
// stream, a result is only surfaced to callers once a read quorum (2f+1) of
// replicas returns identical bytes.
type ReadExecutor interface {
	ExecuteRead(op []byte) (result []byte, ok bool)
}

// Null is an application that does nothing and replies with a fixed
// acknowledgement. It is the workload used by the throughput benchmarks,
// where execution cost is modelled separately. It deliberately does NOT
// implement ConflictKeyer, making it the canonical serial-fallback app.
type Null struct{}

var _ Application = Null{}

// Execute implements Application.
func (Null) Execute(types.ClientID, types.RequestID, []byte) []byte {
	return []byte("ok")
}

// Counter is a tiny application maintaining one integer per client; every
// request adds the 8-byte big-endian value in the operation (or 1 if absent)
// and returns the new total. Used by integration tests to check that all
// nodes execute the same sequence.
type Counter struct {
	mu     sync.Mutex
	totals map[types.ClientID]uint64
	log    uint64 // order-sensitive digest of all executions
}

var _ Application = (*Counter)(nil)
var _ ConflictKeyer = (*Counter)(nil)

// NewCounter creates an empty counter application.
func NewCounter() *Counter {
	return &Counter{totals: make(map[types.ClientID]uint64)}
}

// Execute implements Application.
func (c *Counter) Execute(client types.ClientID, id types.RequestID, op []byte) []byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	delta := uint64(1)
	if len(op) >= 8 {
		delta = binary.BigEndian.Uint64(op)
	}
	c.totals[client] += delta
	// Mix an order-sensitive fingerprint so divergent execution orders are
	// detectable.
	c.log = c.log*1099511628211 + uint64(client)*31 + uint64(id)*17 + delta
	out := make([]byte, 8)
	binary.BigEndian.PutUint64(out, c.totals[client])
	return out
}

// counterLogKey is the single write key every Counter operation declares.
var counterLogKey = []string{"log"}

// Keys implements ConflictKeyer. Every operation writes the order-sensitive
// fingerprint, so all operations conflict and the execution scheduler
// degenerates to serial in-order apply — exactly what the fingerprint
// requires. The Counter exists to detect ordering divergence; declaring
// per-client keys would let the scheduler reorder across clients and destroy
// the property the integration tests rely on.
func (c *Counter) Keys([]byte) (reads, writes []string) {
	return nil, counterLogKey
}

// Total returns the current total for a client.
func (c *Counter) Total(client types.ClientID) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.totals[client]
}

// Fingerprint returns the order-sensitive execution digest.
func (c *Counter) Fingerprint() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.log
}

// KV is a replicated key-value store with GET/PUT/DEL operations encoded as
// text: "PUT key value", "GET key", "DEL key". Verbs are case-insensitive
// ("put k v" works); keys and values are case-sensitive and taken verbatim
// ("K" and "k" are different keys). A PUT value is everything after the
// second space, spaces included. Empty or whitespace-only operations are
// rejected explicitly. It backs the kvstore example.
//
// The store is sharded: each key lives in one of kvShards independently
// locked segments, so non-conflicting operations scheduled concurrently by
// internal/exec really do apply in parallel.
type KV struct {
	shards [kvShards]kvShard
}

// kvShards is the fixed shard count; a power of two so shardOf is a mask.
const kvShards = 16

type kvShard struct {
	mu   sync.Mutex
	data map[string]string
}

var _ Application = (*KV)(nil)
var _ ConflictKeyer = (*KV)(nil)
var _ ReadExecutor = (*KV)(nil)

// NewKV creates an empty key-value store.
func NewKV() *KV {
	kv := &KV{}
	for i := range kv.shards {
		kv.shards[i].data = make(map[string]string)
	}
	return kv
}

// shardOf maps a key to its segment (FNV-1a, masked).
func (kv *KV) shardOf(key []byte) *kvShard {
	h := uint32(2166136261)
	for i := 0; i < len(key); i++ {
		h ^= uint32(key[i])
		h *= 16777619
	}
	return &kv.shards[h&(kvShards-1)]
}

// kvVerb classifies one operation. parseOp is the single parser shared by
// Execute and Keys so the declared conflict keys can never diverge from the
// state Execute actually touches.
type kvVerb int

const (
	kvEmpty kvVerb = iota // empty or whitespace-only op
	kvBadPut
	kvBadGet
	kvBadDel
	kvUnknown
	kvPut
	kvGet
	kvDel
)

// parseOp splits op into verb, key and value, as strings.SplitN(op, " ", 3)
// would. Verbs match case-insensitively; the key and value (spaces
// preserved) are verbatim. All three are subslices of op: callers convert
// only what they keep, so a 4 KB PUT is not copied to a string to find its
// key.
func parseOp(op []byte) (verb kvVerb, key, value, rawVerb []byte) {
	if len(bytes.TrimSpace(op)) == 0 {
		return kvEmpty, nil, nil, nil
	}
	rawVerb, rest, hasKey := bytes.Cut(op, []byte(" "))
	key, value, hasValue := bytes.Cut(rest, []byte(" "))
	switch {
	case bytes.EqualFold(rawVerb, []byte("PUT")):
		if !hasValue {
			return kvBadPut, nil, nil, rawVerb
		}
		return kvPut, key, value, rawVerb
	case bytes.EqualFold(rawVerb, []byte("GET")):
		if !hasKey || hasValue {
			return kvBadGet, nil, nil, rawVerb
		}
		return kvGet, key, nil, rawVerb
	case bytes.EqualFold(rawVerb, []byte("DEL")):
		if !hasKey || hasValue {
			return kvBadDel, nil, nil, rawVerb
		}
		return kvDel, key, nil, rawVerb
	default:
		return kvUnknown, nil, nil, rawVerb
	}
}

// Execute implements Application.
func (kv *KV) Execute(_ types.ClientID, _ types.RequestID, op []byte) []byte {
	verb, key, value, rawVerb := parseOp(op)
	switch verb {
	case kvPut:
		// "key value" is the contiguous tail of op, so one string holds
		// both. A map assignment replaces a string key too, so overwriting
		// the key frees the old string rather than pinning it.
		kvs := string(op[len(op)-len(key)-1-len(value):])
		sh := kv.shardOf(key)
		sh.mu.Lock()
		sh.data[kvs[:len(key)]] = kvs[len(key)+1:]
		sh.mu.Unlock()
		return []byte("OK")
	case kvGet:
		v, ok := kv.get(key)
		if !ok {
			return []byte("NOT_FOUND")
		}
		return []byte(v)
	case kvDel:
		sh := kv.shardOf(key)
		sh.mu.Lock()
		delete(sh.data, string(key))
		sh.mu.Unlock()
		return []byte("OK")
	case kvEmpty:
		return []byte("ERR empty op")
	case kvBadPut:
		return []byte("ERR usage: PUT key value")
	case kvBadGet:
		return []byte("ERR usage: GET key")
	case kvBadDel:
		return []byte("ERR usage: DEL key")
	default:
		return []byte(fmt.Sprintf("ERR unknown op %q", rawVerb))
	}
}

// get looks key up in its shard, under the shard lock.
func (kv *KV) get(key []byte) (string, bool) {
	sh := kv.shardOf(key)
	sh.mu.Lock()
	v, ok := sh.data[string(key)]
	sh.mu.Unlock()
	return v, ok
}

// ExecuteRead implements ReadExecutor: a GET is answered from the key's
// shard under its lock — the same bytes Execute would produce for the same
// store state. Anything that is not a well-formed GET is not a read
// (ok=false) and must travel through ordering.
func (kv *KV) ExecuteRead(op []byte) ([]byte, bool) {
	verb, key, _, _ := parseOp(op)
	if verb != kvGet {
		return nil, false
	}
	v, ok := kv.get(key)
	if !ok {
		return []byte("NOT_FOUND"), true
	}
	return []byte(v), true
}

// Keys implements ConflictKeyer: GET reads its key; PUT and DEL write theirs.
// Malformed, empty and unknown operations touch no state and declare nothing,
// so they commute with everything.
func (kv *KV) Keys(op []byte) (reads, writes []string) {
	verb, key, _, _ := parseOp(op)
	switch verb {
	case kvGet:
		return []string{string(key)}, nil
	case kvPut, kvDel:
		return nil, []string{string(key)}
	default:
		return nil, nil
	}
}

// Len returns the number of stored keys.
func (kv *KV) Len() int {
	n := 0
	for i := range kv.shards {
		sh := &kv.shards[i]
		sh.mu.Lock()
		n += len(sh.data)
		sh.mu.Unlock()
	}
	return n
}

// Snapshot copies the full store (tests compare replica states with it).
func (kv *KV) Snapshot() map[string]string {
	out := make(map[string]string)
	for i := range kv.shards {
		sh := &kv.shards[i]
		sh.mu.Lock()
		for k, v := range sh.data {
			out[k] = v
		}
		sh.mu.Unlock()
	}
	return out
}
