package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rbft/internal/app"
	"rbft/internal/client"
	"rbft/internal/core"
	"rbft/internal/obs"
	"rbft/internal/runtime"
	"rbft/internal/types"
	"rbft/internal/wal"
)

// firstReplyTimeout bounds the wait for each client's first accepted reply
// during set-up.
const firstReplyTimeout = 10 * time.Second

// trial is one live cluster with the benchmark's two clients attached.
type trial struct {
	w       workload
	lc      *runtime.LocalCluster
	dataDir string

	mu   sync.Mutex
	apps []app.Application // underlying app per node, latest incarnation; guarded by mu

	clients [numClients]*runtime.ClientRuntime
	logs    [numClients]*reqLog
}

// trialOptions carries the hooks of a traced trial.
type trialOptions struct {
	metrics *obs.Registry
	tracer  obs.Tracer
	timing  *appTiming
}

// startTrial boots the cluster, attaches both clients and waits for each
// client's first accepted reply. It returns the elapsed set-up time: from
// StartLocalCluster until the last of those replies.
func startTrial(w workload, seed int64, dataDir string, to trialOptions) (*trial, time.Duration, error) {
	t := &trial{w: w, dataDir: dataDir, apps: make([]app.Application, types.ClusterSize(1))}
	opts := runtime.ClusterOptions{
		F:           1,
		Transport:   w.transport,
		ExecWorkers: w.execWorkers,
		Metrics:     to.metrics,
		Tracer:      to.tracer,
		NewApp: func(n types.NodeID) app.Application {
			a := w.newApp()
			t.mu.Lock()
			t.apps[n] = a
			t.mu.Unlock()
			if to.timing != nil {
				return to.timing.wrap(a)
			}
			return a
		},
	}
	if w.durable {
		// The log lives inside the benchmark's work directory, on whatever
		// disk that is. Skipping the fsync syscall gives the timing of a
		// log on tmpfs (where fsync is free) on any disk: appends, group
		// commit, the log-before-send wait and replay all still run.
		opts.DataDir = dataDir
		opts.WALTune = func(o *wal.Options) { o.NoSync = true }
	}
	start := time.Now()
	lc, err := runtime.StartLocalCluster(opts)
	if err != nil {
		return nil, 0, fmt.Errorf("start cluster: %w", err)
	}
	t.lc = lc
	for i, id := range clientIDs {
		cr, err := lc.NewClient(id)
		if err != nil {
			t.stop()
			return nil, 0, fmt.Errorf("client %d: %w", id, err)
		}
		t.clients[i] = cr
		t.logs[i] = newReqLog(w, seed, id)
	}
	for i := range t.clients {
		t.logs[i].submit(t.clients[i], time.Now())
	}
	deadline := time.After(firstReplyTimeout)
	for i, cr := range t.clients {
		select {
		case d := <-cr.Completions():
			t.logs[i].complete(d, time.Now())
		case <-deadline:
			t.stop()
			return nil, 0, fmt.Errorf("client %d: no reply within %v", clientIDs[i], firstReplyTimeout)
		}
	}
	return t, time.Since(start), nil
}

// stop shuts the cluster down and deletes its data directory.
func (t *trial) stop() {
	t.lc.Stop()
	if t.dataDir != "" {
		_ = os.RemoveAll(t.dataDir) // best effort: the run's base directory is removed at exit too
	}
}

// app returns node n's current (underlying) application.
func (t *trial) app(n int) app.Application {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.apps[n]
}

// reqLog records one client's requests: the op generator plus, per request
// id, when it was sent and when it completed.
type reqLog struct {
	mu       sync.Mutex
	gen      *opGen      // guarded by mu
	sent     []time.Time // index id-1; guarded by mu
	done     []time.Time // zero until accepted; guarded by mu
	submitUs []float64   // Submit call durations; guarded by mu
	lateMs   []float64   // send time minus due time; guarded by mu
	gets     []getResult // KV GET results, checked once every writer is known; guarded by mu
	accepted int         // guarded by mu
	badErr   error       // first invalid reply; guarded by mu
}

// getResult is one accepted GET reply.
type getResult struct {
	id    types.RequestID
	value []byte
}

func newReqLog(w workload, seed int64, id types.ClientID) *reqLog {
	return &reqLog{gen: newOpGen(w, seed, id)}
}

// submit sends the next op. due is when the request became due: the start
// of the load, or the completion that freed its slot in the closed loop.
func (l *reqLog) submit(cr *runtime.ClientRuntime, due time.Time) {
	l.mu.Lock()
	op := l.gen.next()
	t0 := time.Now()
	l.sent = append(l.sent, t0)
	l.done = append(l.done, time.Time{})
	l.lateMs = append(l.lateMs, ms(t0.Sub(due)))
	l.mu.Unlock()
	cr.Submit(op)
	us := float64(time.Since(t0).Nanoseconds()) / 1e3
	l.mu.Lock()
	l.submitUs = append(l.submitUs, us)
	l.mu.Unlock()
}

// complete records an accepted result and validates it against the op.
func (l *reqLog) complete(d client.Completed, at time.Time) {
	l.mu.Lock()
	defer l.mu.Unlock()
	i := int(d.ID) - 1
	if i < 0 || i >= len(l.done) {
		l.fail(fmt.Errorf("client %d: completion for unknown request %d", l.gen.client, d.ID))
		return
	}
	if !l.done[i].IsZero() {
		l.fail(fmt.Errorf("client %d: request %d completed twice", l.gen.client, d.ID))
		return
	}
	l.done[i] = at
	l.accepted++
	if op := l.gen.ops[i]; l.gen.w.app == kvApp && !op.put {
		l.gets = append(l.gets, getResult{id: d.ID, value: d.Result})
		return
	}
	if err := checkReply(l.gen, d.ID, d.Result, nil); err != nil {
		l.fail(err)
	}
}

func (l *reqLog) fail(err error) {
	if l.badErr == nil {
		l.badErr = err
	}
}

func (l *reqLog) inflight() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.sent) - l.accepted
}

// loadResult is what one load phase measured.
type loadResult struct {
	win       window
	submitted int
	accepted  int         // by the drain deadline
	inWindow  int         // completions inside the window
	doneAt    []time.Time // completion times inside the window
	latencyMs []float64   // of the requests completing inside the window, in doneAt order
	submitUs  []float64
	lateMs    []float64
	cpuSec    float64   // process user+sys over the window
	allocs    uint64    // heap objects allocated over the window
	liveMB    []float64 // live heap, sampled every memSampleEvery in the window
}

// Load-phase timing.
const (
	warmup         = time.Second
	drainTimeout   = 10 * time.Second
	memSampleEvery = 100 * time.Millisecond
)

// runLoad drives the workload for warmup+seconds, then stops submitting and
// drains outstanding requests. onWindow, when set, is called at the start
// and end of the measured window (the traced run snapshots counters there).
func (t *trial) runLoad(seconds float64, onWindow func(start bool)) loadResult {
	// Requests issued during set-up are not part of the load.
	var base [numClients]int
	for i, l := range t.logs {
		l.mu.Lock()
		base[i] = len(l.sent)
		l.mu.Unlock()
	}
	stopSubmit := make(chan struct{})
	hardStop := make(chan struct{})
	win := window{start: time.Now().Add(warmup)}
	win.end = win.start.Add(time.Duration(seconds * float64(time.Second)))

	var wg sync.WaitGroup
	for i := range t.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			t.closedLoop(i, stopSubmit, hardStop)
		}(i)
	}

	time.Sleep(time.Until(win.start))
	cpu0, allocs0 := processCPU(), heapAllocs()
	win.start = time.Now()
	if onWindow != nil {
		onWindow(true)
	}
	var liveMB []float64
	for d := time.Until(win.end); d > 0; d = time.Until(win.end) {
		time.Sleep(min(d, memSampleEvery))
		liveMB = append(liveMB, heapLiveMB())
	}
	if onWindow != nil {
		onWindow(false)
	}
	cpu1, allocs1 := processCPU(), heapAllocs()
	win.end = time.Now()
	close(stopSubmit)

	drained := make(chan struct{})
	go func() { wg.Wait(); close(drained) }()
	select {
	case <-drained:
	case <-time.After(drainTimeout):
		close(hardStop)
		<-drained
	}

	r := loadResult{win: win, cpuSec: cpu1 - cpu0, allocs: allocs1 - allocs0, liveMB: liveMB}
	for i, l := range t.logs {
		l.mu.Lock()
		for j := base[i]; j < len(l.sent); j++ {
			r.submitted++
			sent, done := l.sent[j], l.done[j]
			if done.IsZero() {
				continue
			}
			r.accepted++
			if win.contains(done) {
				r.inWindow++
				r.doneAt = append(r.doneAt, done)
				r.latencyMs = append(r.latencyMs, ms(done.Sub(sent)))
			}
			if win.contains(sent) {
				r.submitUs = append(r.submitUs, l.submitUs[j])
				r.lateMs = append(r.lateMs, l.lateMs[j])
			}
		}
		l.mu.Unlock()
	}
	return r
}

// slice is the sub-window length of the sliced metrics: throughput and p99
// latency are taken per slice and the median over the window's slices is
// reported, so one scheduler stall on the shared host moves one slice, not
// the reported value.
const slice = 3 * time.Second

// slices returns the number of whole slices in the window; 0 when the
// window is shorter than two slices and the whole window is used instead.
func (r loadResult) slices() int {
	// The window ends a few µs past its planned length; round, so a window
	// of k slices has k.
	if n := int(math.Round(float64(r.win.end.Sub(r.win.start)) / float64(slice))); n >= 2 {
		return n
	}
	return 0
}

// sliceOf returns the slice index of t, or -1 past the last whole slice.
func (r loadResult) sliceOf(t time.Time, n int) int {
	if k := int(t.Sub(r.win.start) / slice); k < n {
		return k
	}
	return -1
}

// sliceRates returns each slice's completions per second.
func (r loadResult) sliceRates() []float64 {
	n := r.slices()
	if n == 0 {
		return []float64{float64(r.inWindow) / r.win.seconds()}
	}
	rates := make([]float64, n)
	for _, at := range r.doneAt {
		if k := r.sliceOf(at, n); k >= 0 {
			rates[k] += 1 / slice.Seconds()
		}
	}
	return rates
}

// sliceP99s returns each slice's p99 latency.
func (r loadResult) sliceP99s() []float64 {
	n := r.slices()
	if n == 0 {
		return []float64{percentile(r.latencyMs, 0.99)}
	}
	lat := make([][]float64, n)
	for i, at := range r.doneAt {
		if k := r.sliceOf(at, n); k >= 0 {
			lat[k] = append(lat[k], r.latencyMs[i])
		}
	}
	p99s := make([]float64, n)
	for k, l := range lat {
		p99s[k] = percentile(l, 0.99)
	}
	return p99s
}

// closedLoop keeps w.outstanding requests in flight on client i, sending
// the next as soon as one completes, until stopSubmit; then it waits for
// the rest until they complete or hardStop.
func (t *trial) closedLoop(i int, stopSubmit, hardStop <-chan struct{}) {
	cr, l := t.clients[i], t.logs[i]
	for k := 0; k < t.w.outstanding; k++ {
		l.submit(cr, time.Now())
	}
	submitting := true
	for submitting || l.inflight() > 0 {
		select {
		case d := <-cr.Completions():
			now := time.Now()
			l.complete(d, now)
			if submitting {
				l.submit(cr, now)
			}
		case <-stopSubmit:
			submitting, stopSubmit = false, nil
		case <-hardStop:
			return
		}
	}
}

// nodeCPIs reads every node's current primary instance (instance-change
// count) from the running state machines.
func (t *trial) nodeCPIs() []uint64 {
	cpis := make([]uint64, t.lc.Cluster.N)
	for i := range cpis {
		t.lc.Node(types.NodeID(i)).WithNode(func(n *core.Node) core.Output {
			cpis[i] = n.CPI()
			return core.Output{}
		})
	}
	return cpis
}

// dataDirFor returns a fresh data directory path under base.
func dataDirFor(base string, k int) string { return filepath.Join(base, fmt.Sprintf("trial-%d", k)) }

// percentile is the nearest-rank q-quantile of xs (q in (0,1]).
func percentile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(s) {
		i = len(s) - 1
	}
	return s[i]
}
