package main

import (
	"bufio"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rbft/internal/app"
	"rbft/internal/obs"
	"rbft/internal/types"
)

// traceSample: the tracer keeps request-scoped events only for request ids
// divisible by it. That leaves enough requests for stage medians while the
// trace of a closed-loop run stays in the tens of MB. Batch-scoped events
// are all kept.
const traceSample = 8

// memTracer is the benchmark's in-memory span sink. It records only while
// the measured window is open, and only the event types the per-layer
// metrics read. Instance-change completions are counted at all times.
type memTracer struct {
	recording atomic.Bool
	icCount   atomic.Int64

	mu     sync.Mutex
	events []obs.Event // guarded by mu
}

func (m *memTracer) Enabled() bool { return true }

func (m *memTracer) Trace(ev obs.Event) {
	if ev.Type == obs.EvInstanceChangeComplete {
		m.icCount.Add(1)
	}
	if !m.recording.Load() {
		return
	}
	switch ev.Type {
	case obs.EvRequestReceived, obs.EvExecuted, obs.EvSpan, obs.EvPrePrepare,
		obs.EvInstanceChangeStart, obs.EvInstanceChangeComplete:
	default:
		return
	}
	if ev.Client != 0 && uint64(ev.Req)%traceSample != 0 {
		return
	}
	m.mu.Lock()
	m.events = append(m.events, ev)
	m.mu.Unlock()
}

func (m *memTracer) snapshot() []obs.Event {
	m.mu.Lock()
	defer m.mu.Unlock()
	return append([]obs.Event(nil), m.events...)
}

// writeJSONL writes the recorded events to path, one JSON object per line.
func writeJSONL(path string, events []obs.Event) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriterSize(f, 1<<20)
	jw := obs.NewJSONLWriter(bw)
	for _, ev := range events {
		jw.Trace(ev)
	}
	if err := jw.Err(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("write trace: %w", err)
	}
	return f.Close()
}

// appTiming times every Execute of the wrapped applications.
type appTiming struct {
	ns, calls atomic.Int64
}

// wrap returns a timing wrapper that keeps the optional interfaces a
// exposes, so parallel execution and reads behave as without it. Both
// benchmark applications declare conflict keys; only the KV serves reads.
func (at *appTiming) wrap(a app.Application) app.Application {
	t := &timedApp{app: a, at: at}
	keyer := a.(app.ConflictKeyer)
	if reader, ok := a.(app.ReadExecutor); ok {
		return struct {
			*timedApp
			app.ConflictKeyer
			app.ReadExecutor
		}{t, keyer, reader}
	}
	return struct {
		*timedApp
		app.ConflictKeyer
	}{t, keyer}
}

type timedApp struct {
	app app.Application
	at  *appTiming
}

func (t *timedApp) Execute(c types.ClientID, id types.RequestID, op []byte) []byte {
	t0 := time.Now()
	res := t.app.Execute(c, id, op)
	t.at.ns.Add(int64(time.Since(t0)))
	t.at.calls.Add(1)
	return res
}

// counterDelta sums, over snapshot entries named name or name{...}, the
// difference between the end and start registry snapshots.
func counterDelta(start, end []obs.Metric, name string) float64 {
	return sumMetric(end, name) - sumMetric(start, name)
}

func sumMetric(snap []obs.Metric, name string) float64 {
	var s float64
	for _, m := range snap {
		if m.Name == name || strings.HasPrefix(m.Name, name+"{") {
			s += m.Value
		}
	}
	return s
}

// histDelta returns the sum and count a histogram gained between snapshots.
func histDelta(start, end []obs.Metric, name string) (sum float64, count uint64) {
	for _, m := range end {
		if m.Name == name {
			sum, count = m.Sum, m.Count
		}
	}
	for _, m := range start {
		if m.Name == name {
			sum, count = sum-m.Sum, count-m.Count
		}
	}
	return sum, count
}

// stageP50Ms returns the p50 of a critical-path stage in ms (0 when the
// stage never appeared on a critical path).
func stageP50Ms(rep obs.CriticalPathReport, st obs.Stage) float64 {
	for _, s := range rep.Stages {
		if s.Stage == st.String() {
			return ms(s.P50)
		}
	}
	return 0
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// ratio is a/b, or 0 when b is 0 (the layer did no work in this workload).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
