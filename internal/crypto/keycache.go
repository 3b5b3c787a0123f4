package crypto

import (
	"crypto/sha256"
	"encoding"
	"encoding/binary"
	"hash"
	"sync"

	"rbft/internal/types"
)

// pairRef identifies one (a, b) principal pair in normalised order (a <= b).
type pairRef struct{ a, b principal }

// macKey is one pair key's precomputed HMAC-SHA256 state: the SHA-256
// midstates right after absorbing key⊕ipad and key⊕opad, snapshotted with
// MarshalBinary. A MAC restores them into a pooled digest instead of calling
// hmac.New, so it allocates nothing and skips the two key-block compressions.
type macKey struct{ inner, outer []byte }

// newMACKey snapshots the midstates for key, which must fit in one SHA-256
// block; pair keys are 32-byte HMAC outputs.
func newMACKey(key []byte) *macKey {
	var pad [sha256.BlockSize]byte
	copy(pad[:], key)
	snapshot := func(x byte) []byte {
		var block [sha256.BlockSize]byte
		for i := range block {
			block[i] = pad[i] ^ x
		}
		h := sha256.New()
		h.Write(block[:])
		state, err := h.(encoding.BinaryMarshaler).MarshalBinary()
		if err != nil {
			panic("crypto: sha256 state not marshalable: " + err.Error())
		}
		return state
	}
	return &macKey{inner: snapshot(0x36), outer: snapshot(0x5c)}
}

// hashState is a pooled SHA-256 digest with scratch space for its input and
// sums, so MACs and digests computed through it do not allocate.
type hashState struct {
	h     hash.Hash
	u     encoding.BinaryUnmarshaler
	sum   [sha256.Size]byte
	chunk [256]byte
}

var hashPool = sync.Pool{New: func() any {
	h := sha256.New()
	return &hashState{h: h, u: h.(encoding.BinaryUnmarshaler)}
}}

// restore loads a midstate snapshot taken by newMACKey.
func (s *hashState) restore(state []byte) {
	if err := s.u.UnmarshalBinary(state); err != nil {
		panic("crypto: bad sha256 midstate: " + err.Error())
	}
}

// writeCopied feeds data to the hash through the chunk buffer. The copy
// costs far less than the hashing, and it keeps data from escaping through
// the hash.Hash interface, so MAC callers may pass stack buffers.
func (s *hashState) writeCopied(data []byte) {
	for len(data) > 0 {
		n := copy(s.chunk[:], data)
		s.h.Write(s.chunk[:n])
		data = data[n:]
	}
}

// mac computes the truncated HMAC-SHA256 of data under k.
func (s *hashState) mac(k *macKey, data []byte) MAC {
	s.restore(k.inner)
	s.writeCopied(data)
	inner := s.h.Sum(s.sum[:0])
	s.restore(k.outer)
	s.h.Write(inner)
	var tag MAC
	copy(tag[:], s.h.Sum(s.sum[:0]))
	return tag
}

// DigestIDs returns SHA-256(a‖b‖data) with a and b big-endian, streaming
// data into the hash instead of copying it behind the header.
func DigestIDs(a, b uint64, data []byte) types.Digest {
	s := hashPool.Get().(*hashState)
	s.h.Reset()
	binary.BigEndian.PutUint64(s.chunk[0:8], a)
	binary.BigEndian.PutUint64(s.chunk[8:16], b)
	s.h.Write(s.chunk[:16])
	s.h.Write(data)
	var d types.Digest
	copy(d[:], s.h.Sum(s.sum[:0]))
	hashPool.Put(s)
	return d
}

// keyCache memoises each pair's MAC midstates. Deriving a pair key costs one
// HMAC invocation and snapshotting it two compressions; on the ingress hot
// path every MAC verification would pay both again, so the preverify
// pipeline caches them per ring. The cache is concurrency-safe because
// verifier worker goroutines share one ring.
type keyCache struct {
	mu   sync.RWMutex
	keys map[pairRef]*macKey
}

func (c *keyCache) get(ref pairRef) *macKey {
	c.mu.RLock()
	k := c.keys[ref]
	c.mu.RUnlock()
	return k
}

func (c *keyCache) put(ref pairRef, k *macKey) {
	c.mu.Lock()
	if c.keys == nil {
		c.keys = make(map[pairRef]*macKey)
	}
	c.keys[ref] = k
	c.mu.Unlock()
}

// pairKeyCached returns the MAC midstates for the (a, b) pair, deriving and
// caching them on first use. Arguments may be passed in either order.
func (r *KeyRing) pairKeyCached(a, b principal) *macKey {
	if a > b {
		a, b = b, a
	}
	ref := pairRef{a, b}
	if k := r.cache.get(ref); k != nil {
		return k
	}
	k := newMACKey(pairKey(r.secret, a, b))
	r.cache.put(ref, k)
	return k
}

// WarmPairKeys derives and caches this ring's pairwise keys with the n nodes
// and maxClients clients of the cluster, so the ingress pipeline never pays
// key derivation under load. Safe to call concurrently and more than once.
func (r *KeyRing) WarmPairKeys(n, maxClients int) {
	if r.fast {
		return // fast mode derives nothing per pair
	}
	for i := 0; i < n; i++ {
		r.pairKeyCached(r.self, nodePrincipal(types.NodeID(i)))
	}
	for i := 0; i < maxClients; i++ {
		r.pairKeyCached(r.self, clientPrincipal(types.ClientID(i)))
	}
}
