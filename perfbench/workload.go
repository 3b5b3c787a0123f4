package main

import (
	"encoding/binary"
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"time"

	"rbft/internal/app"
	"rbft/internal/runtime"
	"rbft/internal/types"
)

// numClients is the number of client endpoints every workload drives.
const numClients = 2

// clientIDs are the identities of the benchmark's client endpoints.
var clientIDs = [numClients]types.ClientID{1, 2}

// appKind selects the replicated application.
type appKind int

const (
	counterApp appKind = iota + 1
	kvApp
)

// workload is one traffic mix against a live f=1 cluster.
type workload struct {
	name        string
	transport   runtime.TransportKind
	app         appKind
	durable     bool // WAL under the run's data directory
	execWorkers int

	// outstanding is each client's closed-loop window: it sends the next
	// request as soon as one of these completes.
	outstanding int

	// KV mix.
	keys         int
	zipfS        float64 // 0 = uniform
	readFraction float64
	valueBytes   int
}

var workloads = []workload{
	{
		name: "counter-closed", transport: runtime.TCP, app: counterApp,
		outstanding: 32,
	},
	{
		name: "kv-read-closed", transport: runtime.Mem, app: kvApp,
		durable: true, execWorkers: 2, outstanding: 8,
		keys: 10000, zipfS: 1.1, readFraction: 0.9, valueBytes: 256,
	},
	{
		name: "kv-write4k-closed", transport: runtime.TCP, app: kvApp,
		durable: true, execWorkers: 2, outstanding: 32,
		keys: 2000, valueBytes: 4096,
	},
}

func findWorkload(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// opRecord is what the checkers need to know about one generated op
// without keeping its bytes: the KV key index and verb, or the counter
// delta.
type opRecord struct {
	put   bool
	key   int32
	delta uint64
}

// opGen generates one client's operation stream from the workload seed.
// The i-th call returns the op of request id i+1 (client request ids start
// at 1 and the client runtime numbers requests in Submit order), so the
// checkers can map any (client, request id) back to its op.
type opGen struct {
	w      workload
	client types.ClientID
	rng    *rand.Rand
	zipf   *rand.Zipf
	filler []byte // seed-derived value bytes after the header
	ops    []opRecord
}

func newOpGen(w workload, seed int64, client types.ClientID) *opGen {
	rng := rand.New(rand.NewSource(seed*1_000_003 + int64(client)))
	g := &opGen{w: w, client: client, rng: rng}
	if w.app == kvApp {
		if w.zipfS > 0 {
			g.zipf = rand.NewZipf(rng, w.zipfS, 1, uint64(w.keys-1))
		}
		g.filler = make([]byte, w.valueBytes)
		fill := rand.New(rand.NewSource(seed))
		for i := range g.filler {
			g.filler[i] = 'a' + byte(fill.Intn(26))
		}
	}
	return g
}

// next returns the op of the next request id.
func (g *opGen) next() []byte {
	id := types.RequestID(len(g.ops) + 1)
	if g.w.app == counterApp {
		delta := uint64(1 + g.rng.Intn(255))
		g.ops = append(g.ops, opRecord{delta: delta})
		return encodeCounterOp(delta)
	}
	var key int
	if g.zipf != nil {
		key = int(g.zipf.Uint64())
	} else {
		key = g.rng.Intn(g.w.keys)
	}
	put := g.rng.Float64() >= g.w.readFraction
	g.ops = append(g.ops, opRecord{put: put, key: int32(key)})
	if !put {
		return []byte("GET " + kvKey(key))
	}
	op := make([]byte, 0, 5+len(kvKey(key))+g.w.valueBytes)
	op = append(op, "PUT "...)
	op = append(op, kvKey(key)...)
	op = append(op, ' ')
	return appendValue(op, g.client, id, g.filler)
}

// op returns the record of request id, if generated.
func (g *opGen) op(id types.RequestID) (opRecord, bool) {
	if id < 1 || int(id) > len(g.ops) {
		return opRecord{}, false
	}
	return g.ops[id-1], true
}

// encodeCounterOp is the 8-byte big-endian counter delta.
func encodeCounterOp(delta uint64) []byte {
	op := make([]byte, 8)
	binary.BigEndian.PutUint64(op, delta)
	return op
}

func kvKey(i int) string { return "k" + strconv.Itoa(i) }

// appendValue appends the PUT value of (client, id): a "client/id/" header
// followed by the seed-derived filler, padded to the filler's length.
func appendValue(dst []byte, client types.ClientID, id types.RequestID, filler []byte) []byte {
	start := len(dst)
	dst = strconv.AppendInt(dst, int64(client), 10)
	dst = append(dst, '/')
	dst = strconv.AppendUint(dst, uint64(id), 10)
	dst = append(dst, '/')
	if n := len(dst) - start; n < len(filler) {
		dst = append(dst, filler[n:]...)
	}
	return dst
}

// newApp builds one replica's application.
func (w workload) newApp() app.Application {
	if w.app == counterApp {
		return app.NewCounter()
	}
	return app.NewKV()
}

// window times one measured interval.
type window struct {
	start, end time.Time
}

func (wd window) contains(t time.Time) bool { return !t.Before(wd.start) && t.Before(wd.end) }
func (wd window) seconds() float64          { return wd.end.Sub(wd.start).Seconds() }
