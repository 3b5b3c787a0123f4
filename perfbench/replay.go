package main

import (
	"fmt"
	"math"
	"time"

	"rbft/internal/client"
	"rbft/internal/core"
	"rbft/internal/crypto"
	"rbft/internal/message"
	"rbft/internal/types"
)

// replayRequests is how many of the workload's requests the layer replays
// generate; each timed loop below runs over all of them.
const replayRequests = 1000

// replayResult holds the per-call costs of the replayed layer functions.
type replayResult struct {
	decodeRequestUs, decodeAllocs             float64 // allocs: heap objects per call
	decodePrePrepareUs, decodePrePrepareAlloc float64
	verifyUs, verifyAllocs                    float64
	authenticatorUs, authenticatorAllocs      float64
	onVerifiedUs, onVerifiedAllocs            float64
}

// replayLayers times public layer functions on inputs generated from the
// workload seed, outside any measured window. batchSize sets the number of
// refs in the replayed PRE-PREPARE (the traced mean batch size).
func replayLayers(w workload, seed int64, batchSize int) (replayResult, error) {
	var r replayResult
	cluster := types.NewConfig(1)
	ks := crypto.NewKeyStore([]byte("perfbench-replay"), cluster.N, 64)

	// The workload's REQUEST frames, signed and authenticated by their
	// client exactly as ClientRuntime.Submit sends them.
	reqs := make([]*message.Request, replayRequests)
	frames := make([][]byte, replayRequests)
	var gens [numClients]*opGen
	var clis [numClients]*client.Client
	for i, id := range clientIDs {
		gens[i] = newOpGen(w, seed, id)
		clis[i] = client.New(client.Config{Cluster: cluster, ID: id}, ks.ClientRing(id))
	}
	now := time.Now()
	for k := range reqs {
		c := k % numClients
		reqs[k] = clis[c].NewRequest(gens[c].next(), now)
		frames[k] = reqs[k].Marshal(nil)
	}

	const passes = 5
	us, allocs := timeLoop(passes*len(frames), func(i int) {
		if _, err := message.Decode(frames[i%len(frames)]); err != nil {
			panic(err) // frames were just encoded by Marshal
		}
	})
	r.decodeRequestUs, r.decodeAllocs = us, allocs

	if batchSize < 1 {
		batchSize = 1
	}
	pp := &message.PrePrepare{Instance: types.MasterInstance, View: 0, Seq: 1, Node: 0}
	for k := 0; k < batchSize; k++ {
		pp.Batch = append(pp.Batch, reqs[k%len(reqs)].Ref())
	}
	nodeRing := ks.NodeRing(0)
	ppBody := pp.Body()
	pp.Auth = nodeRing.AuthenticatorForNodes(cluster.N, ppBody)
	ppFrame := pp.Marshal(nil)
	r.decodePrePrepareUs, r.decodePrePrepareAlloc = timeLoop(passes*len(frames), func(int) {
		if _, err := message.Decode(ppFrame); err != nil {
			panic(err)
		}
	})
	r.authenticatorUs, r.authenticatorAllocs = timeLoop(passes*len(frames), func(int) {
		_ = nodeRing.AuthenticatorForNodes(cluster.N, ppBody)
	})

	bodies := make([][]byte, len(reqs))
	for k, req := range reqs {
		bodies[k] = req.SignedBody()
	}
	var verifyErr error
	r.verifyUs, r.verifyAllocs = timeLoop(len(reqs), func(i int) {
		if err := nodeRing.VerifyClientSignature(reqs[i].Client, bodies[i], reqs[i].Sig); err != nil && verifyErr == nil {
			verifyErr = err
		}
	})
	if verifyErr != nil {
		return r, fmt.Errorf("replay: client signature rejected: %w", verifyErr)
	}

	// A standalone node fed the requests through its own preverify stage;
	// only OnVerified is timed.
	node := core.New(core.Config{
		Cluster: cluster, Node: 1, App: w.newApp(), ExecWorkers: w.execWorkers,
	}, ks.NodeRing(1))
	pre := node.Preverifier()
	verified := make([]*message.Verified, len(frames))
	for k, f := range frames {
		v, err := pre.PreverifyClientFrame(f, reqs[k].Client)
		if err != nil {
			return r, fmt.Errorf("replay: preverify request %d: %w", k, err)
		}
		verified[k] = v
	}
	r.onVerifiedUs, r.onVerifiedAllocs = timeLoop(len(verified), func(i int) {
		node.OnVerified(verified[i], now)
	})
	return r, nil
}

// timeLoop runs fn(0..n-1) and returns the mean µs and heap objects
// allocated per call.
func timeLoop(n int, fn func(i int)) (usPerCall, allocsPerCall float64) {
	a0 := heapAllocs()
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	el := time.Since(t0)
	a1 := heapAllocs()
	return float64(el.Nanoseconds()) / 1e3 / float64(n), float64(a1-a0) / float64(n)
}

// roundBatch turns a traced mean batch size into the replayed batch length.
func roundBatch(mean float64) int { return int(math.Max(1, math.Round(mean))) }
