package message

import (
	"bytes"
	"reflect"
	"testing"
	"unsafe"

	"rbft/internal/crypto"
	"rbft/internal/obs"
	"rbft/internal/types"
)

const testN = 4

func testKeys() *crypto.KeyStore {
	return crypto.NewKeyStore([]byte("preverify-test"), testN, 8)
}

// signedRequest builds a fully authenticated client request.
func signedRequest(ks *crypto.KeyStore, client types.ClientID, id types.RequestID, op []byte) *Request {
	cl := ks.ClientRing(client)
	req := &Request{Client: client, ID: id, Op: op}
	req.Sig = cl.Sign(req.SignedBody())
	req.Auth = cl.AuthenticatorForNodes(testN, req.Body())
	return req
}

// propagateOf wraps req in a PROPAGATE correctly MAC'd by node.
func propagateOf(ks *crypto.KeyStore, node types.NodeID, req *Request) *Propagate {
	p := &Propagate{Req: *req, Node: node}
	p.Req.Auth = nil
	p.Auth = ks.NodeRing(node).AuthenticatorForNodes(testN, p.Body())
	return p
}

func newPreverifier(ks *crypto.KeyStore, cacheCap int) *Preverifier {
	return NewPreverifier(ks.NodeRing(0), 0, types.NewConfig(1), NewVerifyCache(cacheCap))
}

// TestVerifyCacheHitMissCounters pins the cache's observability contract: the
// first verification of a signature is a miss, a retransmission of the exact
// same bytes is a hit, and both Stats and registry-wired counters agree.
func TestVerifyCacheHitMissCounters(t *testing.T) {
	ks := testKeys()
	pre := newPreverifier(ks, 16)
	reg := obs.NewRegistry()
	hits, misses := reg.Counter("rbft_sigcache_hits_total"), reg.Counter("rbft_sigcache_misses_total")
	pre.Cache().SetCounters(hits, misses)

	req := signedRequest(ks, 1, 1, []byte("op"))
	v, err := pre.PreverifyClient(req, 1)
	if err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	if v.SigCached {
		t.Fatal("first verification reported as cache hit")
	}
	if h, m := pre.Cache().Stats(); h != 0 || m != 1 {
		t.Fatalf("after first verify: hits=%d misses=%d, want 0/1", h, m)
	}

	// Client retransmission: same bytes, so the verdict is served from cache.
	v, err = pre.PreverifyClient(req, 1)
	if err != nil {
		t.Fatalf("retransmitted request rejected: %v", err)
	}
	if !v.SigCached {
		t.Fatal("retransmission not served from cache")
	}
	if h, m := pre.Cache().Stats(); h != 1 || m != 1 {
		t.Fatalf("after retransmit: hits=%d misses=%d, want 1/1", h, m)
	}
	if hits.Value() != 1 || misses.Value() != 1 {
		t.Fatalf("registry counters hits=%d misses=%d, want 1/1", hits.Value(), misses.Value())
	}
}

// TestPropagateSharesClientSigVerdict pins the point of the cache in RBFT:
// the same request arrives once per protocol instance (client NIC, then
// wrapped in PROPAGATEs), and only the first copy pays the signature check.
func TestPropagateSharesClientSigVerdict(t *testing.T) {
	ks := testKeys()
	pre := newPreverifier(ks, 16)
	req := signedRequest(ks, 2, 7, []byte("shared"))
	if _, err := pre.PreverifyClient(req, 2); err != nil {
		t.Fatalf("client copy rejected: %v", err)
	}
	v, err := pre.PreverifyNode(propagateOf(ks, 1, req), 1)
	if err != nil {
		t.Fatalf("propagated copy rejected: %v", err)
	}
	if h, m := pre.Cache().Stats(); h != 1 || m != 1 {
		t.Fatalf("hits=%d misses=%d, want 1/1 (propagate served from cache)", h, m)
	}
	if v.From != 1 || v.FromClient {
		t.Fatalf("propagate attributed to %+v, want node 1", v)
	}
}

// TestTamperedRequestMissesCacheAndIsRejected is the security property of
// content-keyed caching: after a valid verdict is cached, any mutation of the
// signed body or the signature changes the cache key, so the stale "valid"
// verdict can never be replayed onto tampered bytes — the tampered copy gets
// a full verification and is rejected.
func TestTamperedRequestMissesCacheAndIsRejected(t *testing.T) {
	ks := testKeys()
	pre := newPreverifier(ks, 16)
	req := signedRequest(ks, 1, 3, []byte("genuine"))
	if _, err := pre.PreverifyClient(req, 1); err != nil {
		t.Fatalf("genuine request rejected: %v", err)
	}

	// A faulty node alters the operation inside its PROPAGATE but keeps the
	// original client signature; its own MAC over the wrapper is valid.
	tamperedOp := *req
	tamperedOp.Op = []byte("Genuine")
	tamperedOp.Sig = append([]byte(nil), req.Sig...)
	if _, err := pre.PreverifyNode(propagateOf(ks, 1, &tamperedOp), 1); FailKindOf(err) != FailBadSig {
		t.Fatalf("tampered op accepted or misclassified: %v", err)
	}

	// A tampered signature with a freshly minted MAC (a faulty client) must
	// likewise miss the cache and fail the real check.
	tamperedSig := *req
	tamperedSig.Sig = append([]byte(nil), req.Sig...)
	tamperedSig.Sig[0] ^= 0x01
	tamperedSig.Auth = ks.ClientRing(1).AuthenticatorForNodes(testN, tamperedSig.Body())
	if _, err := pre.PreverifyClient(&tamperedSig, 1); FailKindOf(err) != FailBadSig {
		t.Fatalf("tampered sig accepted or misclassified: %v", err)
	}

	if h, m := pre.Cache().Stats(); h != 0 || m != 3 {
		t.Fatalf("hits=%d misses=%d, want 0/3 (both tampered copies must miss)", h, m)
	}
}

// TestBadSignatureVerdictCached checks negative caching: a retransmitted
// bad-signature request is rejected again from cache, without paying a second
// signature verification.
func TestBadSignatureVerdictCached(t *testing.T) {
	ks := testKeys()
	pre := newPreverifier(ks, 16)
	req := signedRequest(ks, 1, 4, []byte("bad"))
	req.Sig[1] ^= 0x80
	req.Auth = ks.ClientRing(1).AuthenticatorForNodes(testN, req.Body())
	for i, wantHits := range []uint64{0, 1} {
		if _, err := pre.PreverifyClient(req, 1); FailKindOf(err) != FailBadSig {
			t.Fatalf("attempt %d: bad signature accepted or misclassified: %v", i, err)
		}
		if h, _ := pre.Cache().Stats(); h != wantHits {
			t.Fatalf("attempt %d: hits=%d, want %d", i, h, wantHits)
		}
	}
}

// TestVerifyCacheEviction checks the FIFO bound: once capacity is exceeded
// the oldest verdict is evicted and must be re-verified, while newer entries
// stay resident.
func TestVerifyCacheEviction(t *testing.T) {
	ks := testKeys()
	pre := newPreverifier(ks, 2)
	reqs := make([]*Request, 3)
	for i := range reqs {
		reqs[i] = signedRequest(ks, 1, types.RequestID(10+i), []byte{byte(i)})
		if _, err := pre.PreverifyClient(reqs[i], 1); err != nil {
			t.Fatalf("request %d rejected: %v", i, err)
		}
	}
	// reqs[0] was evicted by reqs[2]; reqs[2] is still resident.
	v, err := pre.PreverifyClient(reqs[0], 1)
	if err != nil {
		t.Fatalf("evicted request rejected on re-verify: %v", err)
	}
	if v.SigCached {
		t.Fatal("evicted verdict still served from cache")
	}
	v, err = pre.PreverifyClient(reqs[2], 1)
	if err != nil {
		t.Fatalf("resident request rejected: %v", err)
	}
	if !v.SigCached {
		t.Fatal("resident verdict not served from cache")
	}
}

// TestPropagateWithChangedOpFailsMAC: the PROPAGATE MAC covers the embedded
// op through its digest, so a node that swaps the op and keeps the MAC it
// computed over the genuine request is caught at MAC cost, before any
// signature work.
func TestPropagateWithChangedOpFailsMAC(t *testing.T) {
	ks := testKeys()
	pre := newPreverifier(ks, 16)
	p := propagateOf(ks, 1, signedRequest(ks, 1, 5, []byte("genuine")))
	p.Req.Op = []byte("Genuine")
	if _, err := pre.PreverifyNode(p, 1); FailKindOf(err) != FailBadMAC {
		t.Fatalf("changed op under the old MAC: got %v, want bad-mac", err)
	}
	if h, m := pre.Cache().Stats(); h != 0 || m != 0 {
		t.Fatalf("hits=%d misses=%d: a MAC failure must not reach the signature cache", h, m)
	}
}

// TestReadOnlyFlipFailsMAC: the wire tag carries the read-only flag and is
// part of what REQUEST and PROPAGATE MACs cover.
func TestReadOnlyFlipFailsMAC(t *testing.T) {
	ks := testKeys()
	pre := newPreverifier(ks, 16)
	req := signedRequest(ks, 1, 6, []byte("get k"))
	flipped := *req
	flipped.ReadOnly = true
	if _, err := pre.PreverifyClient(&flipped, 1); FailKindOf(err) != FailBadMAC {
		t.Fatalf("flipped read-only flag on REQUEST: got %v, want bad-mac", err)
	}
	p := propagateOf(ks, 1, req)
	p.Req.ReadOnly = true
	if _, err := pre.PreverifyNode(p, 1); FailKindOf(err) != FailBadMAC {
		t.Fatalf("flipped read-only flag in PROPAGATE: got %v, want bad-mac", err)
	}
}

// TestVerifiedRefMatchesRequestRef: preverify hands the apply stage the
// request's ordering identifier on both arms a request can arrive by.
func TestVerifiedRefMatchesRequestRef(t *testing.T) {
	ks := testKeys()
	pre := newPreverifier(ks, 16)
	req := signedRequest(ks, 2, 9, []byte("put k v"))
	v, err := pre.PreverifyClient(req, 2)
	if err != nil {
		t.Fatal(err)
	}
	if v.Ref != req.Ref() {
		t.Fatalf("client arm: Verified.Ref %+v, want %+v", v.Ref, req.Ref())
	}
	v, err = pre.PreverifyNode(propagateOf(ks, 3, req), 3)
	if err != nil {
		t.Fatal(err)
	}
	if v.Ref != req.Ref() {
		t.Fatalf("PROPAGATE arm: Verified.Ref %+v, want %+v", v.Ref, req.Ref())
	}
}

// TestCopiedRequestGetsFreshDigest pins that the op digest is never memoised
// on Request: a struct copy whose op is then changed must hash the new op,
// or a tampered copy could inherit the original's digest and cached verdict.
func TestCopiedRequestGetsFreshDigest(t *testing.T) {
	ks := testKeys()
	pre := newPreverifier(ks, 16)
	req := signedRequest(ks, 1, 11, []byte("original"))
	if _, err := pre.PreverifyClient(req, 1); err != nil {
		t.Fatal(err)
	}
	copied := *req
	copied.Op = []byte("mutated")
	var hdr [16]byte
	putU64(hdr[0:], uint64(copied.Client))
	putU64(hdr[8:], uint64(copied.ID))
	want := crypto.Digest(append(hdr[:], copied.Op...))
	if got := copied.OpDigest(); got != want || got == req.OpDigest() {
		t.Fatalf("copied request digest %x, want fresh %x", got, want)
	}
	// Re-signed and re-MAC'd by its client, the copy is a valid request in
	// its own right; preverify must name it by its own digest.
	copied.Sig = ks.ClientRing(1).Sign(copied.SignedBody())
	copied.Auth = ks.ClientRing(1).AuthenticatorForNodes(testN, copied.Body())
	v, err := pre.PreverifyClient(&copied, 1)
	if err != nil {
		t.Fatal(err)
	}
	if v.Ref.Digest != want || v.SigCached {
		t.Fatalf("copy verified as %+v (cached=%v), want digest %x from a fresh check", v.Ref, v.SigCached, want)
	}
}

// TestSigCacheKeyIs32Bytes pins the cache key at one SHA-256 output: a wider
// key (say, the digest and signature side by side) multiplies the resident
// size of a cache holding thousands of entries per node.
func TestSigCacheKeyIs32Bytes(t *testing.T) {
	c := NewVerifyCache(1)
	if size := reflect.TypeOf(c.entries).Key().Size(); size != 32 {
		t.Fatalf("signature-cache key is %d bytes, want 32", size)
	}
	if size := unsafe.Sizeof(sigCacheKey(TypeRequest, types.Digest{}, nil)); size != 32 {
		t.Fatalf("sigCacheKey returns %d bytes, want 32", size)
	}
}

// hotRequest is a warm-cache fixture: a 4 KB request whose MAC keys are
// derived and whose signature verdict is cached.
func hotRequest(tb testing.TB) (*Preverifier, *Request, []byte) {
	ks := testKeys()
	pre := newPreverifier(ks, 16)
	pre.ring.WarmPairKeys(testN, 8)
	req := signedRequest(ks, 1, 1, bytes.Repeat([]byte{0xab}, 4096))
	if _, err := pre.PreverifyClient(req, 1); err != nil {
		tb.Fatal(err)
	}
	return pre, req, req.Marshal(nil)
}

// TestAuthenticatorAllocs is the allocation gate of the ingress crypto: a
// MAC verification allocates nothing, an authenticator only its slice, and
// preverifying a request whose signature verdict is cached allocates no more
// than decoding it did.
func TestAuthenticatorAllocs(t *testing.T) {
	pre, req, frame := hotRequest(t)
	body := req.Body()
	if n := testing.AllocsPerRun(100, func() {
		if pre.ring.VerifyClientAuthenticatorEntry(1, 0, body, req.Auth) != nil {
			t.Fatal("MAC rejected")
		}
	}); n != 0 {
		t.Errorf("MAC verify: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() {
		_ = pre.ring.AuthenticatorForNodes(testN, body)
	}); n > 1 {
		t.Errorf("AuthenticatorForNodes: %v allocs, want <= 1", n)
	}
	decode := testing.AllocsPerRun(100, func() {
		if _, err := Decode(frame); err != nil {
			t.Fatal(err)
		}
	})
	hit := testing.AllocsPerRun(100, func() {
		if v, err := pre.PreverifyClient(req, 1); err != nil || !v.SigCached {
			t.Fatal("cached request not served from the cache")
		}
	})
	if hit > decode {
		t.Errorf("PreverifyClient cache hit: %v allocs, decode alone %v", hit, decode)
	}
}

func BenchmarkPreverifyHit(b *testing.B) {
	pre, req, _ := hotRequest(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pre.PreverifyClient(req, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPreverifyMiss runs without a cache, so every call pays the full
// Ed25519 verification.
func BenchmarkPreverifyMiss(b *testing.B) {
	_, req, _ := hotRequest(b)
	pre := NewPreverifier(testKeys().NodeRing(0), 0, types.NewConfig(1), nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := pre.PreverifyClient(req, 1); err != nil {
			b.Fatal(err)
		}
	}
}

// TestFullBodySignatureRejected: the client signs tag‖client‖id‖OpDigest. A
// signature over the full-op input (tag‖client‖id‖len‖op) is a different
// message to Ed25519 and must fail, even under a valid MAC.
func TestFullBodySignatureRejected(t *testing.T) {
	ks := testKeys()
	pre := newPreverifier(ks, 16)
	cl := ks.ClientRing(1)
	req := &Request{Client: 1, ID: 7, Op: []byte("put k v")}
	req.Sig = cl.Sign(req.appendWireHead(nil))
	req.Auth = cl.AuthenticatorForNodes(testN, req.Body())
	if _, err := pre.PreverifyClient(req, 1); FailKindOf(err) != FailBadSig {
		t.Fatalf("full-body signature: got %v, want bad-sig", err)
	}
}

// TestSignatureCoversRequestFields: changing any signed field of a request
// (op, id, client, read-only flag) while keeping its signature fails the
// signature check, even when the sender re-mints a valid MAC for the change.
func TestSignatureCoversRequestFields(t *testing.T) {
	ks := testKeys()
	req := signedRequest(ks, 1, 8, []byte("put k v"))
	for name, mutate := range map[string]func(r *Request){
		"op":       func(r *Request) { r.Op = []byte("put k w") },
		"id":       func(r *Request) { r.ID++ },
		"client":   func(r *Request) { r.Client = 2 },
		"readonly": func(r *Request) { r.ReadOnly = true },
	} {
		pre := newPreverifier(ks, 16)
		changed := *req
		mutate(&changed)
		changed.Auth = ks.ClientRing(changed.Client).AuthenticatorForNodes(testN, changed.Body())
		if _, err := pre.PreverifyClient(&changed, changed.Client); FailKindOf(err) != FailBadSig {
			t.Errorf("%s changed under the old signature: got %v, want bad-sig", name, err)
		}
		if err := ks.NodeRing(0).VerifyClientSignature(changed.Client, changed.SignedBody(), changed.Sig); err == nil {
			t.Errorf("%s changed: SignedBody still verifies", name)
		}
	}
}

// TestPropagateWithSwappedOpRejected: a faulty node swaps the op inside its
// PROPAGATE and keeps the client signature. Under the MAC it computed over
// the genuine request it fails at MAC cost; under a freshly minted MAC it
// fails the signature check.
func TestPropagateWithSwappedOpRejected(t *testing.T) {
	ks := testKeys()
	pre := newPreverifier(ks, 16)
	req := signedRequest(ks, 1, 9, []byte("put k v"))
	stale := propagateOf(ks, 1, req)
	stale.Req.Op = []byte("put k w")
	if _, err := pre.PreverifyNode(stale, 1); FailKindOf(err) != FailBadMAC {
		t.Fatalf("swapped op under the old MAC: got %v, want bad-mac", err)
	}
	swapped := *req
	swapped.Op = []byte("put k w")
	if _, err := pre.PreverifyNode(propagateOf(ks, 1, &swapped), 1); FailKindOf(err) != FailBadSig {
		t.Fatalf("swapped op under a fresh MAC: got %v, want bad-sig", err)
	}
}
