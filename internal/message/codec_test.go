package message

import (
	"bytes"
	"testing"

	"rbft/internal/crypto"
)

// TestDecodedFieldsCannotOverwriteFrame pins the capacity clip on decoded
// byte fields: Op aliases the frame and is followed there by the signature
// and authenticator, so an append to Op must reallocate rather than write
// over them.
func TestDecodedFieldsCannotOverwriteFrame(t *testing.T) {
	ks := testKeys()
	req := signedRequest(ks, 1, 1, []byte("op"))
	for _, m := range []Message{req, propagateOf(ks, 2, req)} {
		frame := m.Marshal(nil)
		want := append([]byte(nil), frame...)
		got, err := Decode(frame)
		if err != nil {
			t.Fatal(err)
		}
		var dec *Request
		switch g := got.(type) {
		case *Request:
			dec = g
		case *Propagate:
			dec = &g.Req
		default:
			t.Fatalf("decoded %T", got)
		}
		if cap(dec.Op) != len(dec.Op) || cap(dec.Sig) != len(dec.Sig) {
			t.Fatalf("%s: Op cap %d len %d, Sig cap %d len %d: fields not clipped",
				m.MsgType(), cap(dec.Op), len(dec.Op), cap(dec.Sig), len(dec.Sig))
		}
		_ = append(dec.Op, bytes.Repeat([]byte{0xee}, 64)...)
		_ = append(dec.Sig, 0xee)
		if !bytes.Equal(frame, want) {
			t.Fatalf("%s: appending to a decoded field changed the frame", m.MsgType())
		}
		if !bytes.Equal(dec.Sig, req.Sig) {
			t.Fatalf("%s: decoded Sig changed by an append to Op", m.MsgType())
		}
	}
}

// TestDecodeAllocs is the allocation gate of copy-free decoding: a REQUEST
// or PROPAGATE decodes into its message struct and its authenticator slice
// only, whatever the op's size. Copying the op, the signature, or a
// PROPAGATE's inner request would add an allocation per field.
func TestDecodeAllocs(t *testing.T) {
	ks := testKeys()
	const maxAllocs = 2 // message struct + authenticator
	for _, kind := range []string{"REQUEST", "PROPAGATE"} {
		var got [2]float64
		for i, size := range []int{8, 4096} {
			req := signedRequest(ks, 1, 1, bytes.Repeat([]byte{0xab}, size))
			var m Message = req
			if kind == "PROPAGATE" {
				m = propagateOf(ks, 2, req)
			}
			frame := m.Marshal(nil)
			got[i] = testing.AllocsPerRun(100, func() {
				if _, err := Decode(frame); err != nil {
					t.Fatal(err)
				}
			})
		}
		if got[0] != got[1] {
			t.Errorf("%s: decode allocs %v for an 8 B op, %v for 4 KB: grows with op size", kind, got[0], got[1])
		}
		if got[1] > maxAllocs {
			t.Errorf("%s: decode allocates %v, want <= %d", kind, got[1], maxAllocs)
		}
	}
}

// BenchmarkDecodePropagate decodes a PROPAGATE carrying a 4 KB op, the
// per-copy codec cost every node pays f+1 times per request.
func BenchmarkDecodePropagate(b *testing.B) {
	req := &Request{Client: 1, ID: 2, Op: bytes.Repeat([]byte{0xab}, 4096),
		Sig: make([]byte, crypto.SignatureSize)}
	p := &Propagate{Req: *req, Node: 3, Auth: make(crypto.Authenticator, 4)}
	frame := p.Marshal(nil)
	b.ReportAllocs()
	b.SetBytes(int64(len(frame)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Decode(frame); err != nil {
			b.Fatal(err)
		}
	}
}
