package crypto

import (
	"crypto/hmac"
	"crypto/sha256"
	"encoding/binary"
	"sync"
	"testing"

	"rbft/internal/types"
)

// referenceMAC is the textbook HMAC-SHA256 tag for the (a, b) pair, computed
// with crypto/hmac from the derived pair key.
func referenceMAC(ks *KeyStore, a, b principal, data []byte) MAC {
	if a > b {
		a, b = b, a
	}
	h := hmac.New(sha256.New, pairKey(ks.secret, a, b))
	h.Write(data)
	var tag MAC
	copy(tag[:], h.Sum(nil))
	return tag
}

func testData(n int) []byte {
	data := make([]byte, n)
	for i := range data {
		data[i] = byte(i*131 + n)
	}
	return data
}

// TestMidstateMACMatchesHMAC pins the precomputed-midstate MAC to
// crypto/hmac byte for byte, across every input length from empty to well
// past a 4 KB op, so every SHA-256 padding boundary is crossed.
func TestMidstateMACMatchesHMAC(t *testing.T) {
	ks := newTestStore()
	sender, receiver := ks.NodeRing(0), ks.NodeRing(1)
	data := testData(5000)
	for n := 0; n <= len(data); n++ {
		tag := sender.MACForNode(1, data[:n])
		if want := referenceMAC(ks, nodePrincipal(0), nodePrincipal(1), data[:n]); tag != want {
			t.Fatalf("len %d: midstate MAC %x, crypto/hmac %x", n, tag, want)
		}
		if err := receiver.VerifyNodeMAC(0, data[:n], tag); err != nil {
			t.Fatalf("len %d: %v", n, err)
		}
	}
}

// TestMidstateMACColdAndWarm checks that a MAC computed while the key cache
// is cold (midstates derived on first use) equals one computed from a warmed
// cache, and that client-pair keys take the same path.
func TestMidstateMACColdAndWarm(t *testing.T) {
	data := testData(300)
	cold := newTestStore().NodeRing(2)
	coldTag := cold.MACForClient(5, data)
	coldAuth := cold.AuthenticatorForNodes(4, data)

	warm := newTestStore().NodeRing(2)
	warm.WarmPairKeys(4, 8)
	if tag := warm.MACForClient(5, data); tag != coldTag {
		t.Fatalf("warm MAC %x != cold MAC %x", tag, coldTag)
	}
	ks := newTestStore()
	if want := referenceMAC(ks, nodePrincipal(2), clientPrincipal(5), data); coldTag != want {
		t.Fatalf("cold MAC %x, crypto/hmac %x", coldTag, want)
	}
	warmAuth := warm.AuthenticatorForNodes(4, data)
	for i := range coldAuth {
		if coldAuth[i] != warmAuth[i] {
			t.Fatalf("authenticator entry %d differs between cold and warm rings", i)
		}
		if want := referenceMAC(ks, nodePrincipal(2), nodePrincipal(types.NodeID(i)), data); warmAuth[i] != want {
			t.Fatalf("authenticator entry %d: %x, crypto/hmac %x", i, warmAuth[i], want)
		}
	}
	// A second call on the now-warm cold ring must not drift either.
	if tag := cold.MACForClient(5, data); tag != coldTag {
		t.Fatal("MAC changed once the key cache warmed")
	}
}

// TestMidstateMACConcurrentRing shares one cold ring among many goroutines,
// as the verifier workers do, so the key cache fills and the hash pool is
// used concurrently. Run under -race.
func TestMidstateMACConcurrentRing(t *testing.T) {
	ks := newTestStore()
	ring, peer := ks.NodeRing(1), ks.NodeRing(3)
	const workers = 8
	var wg sync.WaitGroup
	errs := make(chan string, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				data := testData(w*97 + i)
				c := types.ClientID((w + i) % 8)
				tag := ring.MACForClient(c, data)
				if tag != referenceMAC(ks, nodePrincipal(1), clientPrincipal(c), data) {
					errs <- "MACForClient diverged from crypto/hmac"
					return
				}
				auth := ring.AuthenticatorForNodes(4, data)
				if peer.VerifyAuthenticatorEntry(1, 3, data, auth) != nil {
					errs <- "authenticator entry rejected"
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

func TestDigestIDsMatchesConcatenation(t *testing.T) {
	data := testData(777)
	buf := binary.BigEndian.AppendUint64(nil, 3)
	buf = binary.BigEndian.AppendUint64(buf, 1<<40+9)
	if DigestIDs(3, 1<<40+9, data) != Digest(append(buf, data...)) {
		t.Fatal("DigestIDs must equal SHA-256 over the concatenated encoding")
	}
}

var authSink Authenticator

// BenchmarkAuthenticator measures one node authenticator (4 MACs) over a
// PROPAGATE-sized digest body.
func BenchmarkAuthenticator(b *testing.B) {
	ring := newTestStore().NodeRing(0)
	ring.WarmPairKeys(4, 8)
	data := testData(128)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		authSink = ring.AuthenticatorForNodes(4, data)
	}
}
