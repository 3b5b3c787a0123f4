package main

import (
	"fmt"
	"path/filepath"
	"time"

	"rbft/internal/obs"
	"rbft/internal/types"
)

// recoverTimeout bounds the wait for a restarted replica to catch up.
const recoverTimeout = 30 * time.Second

// runEndToEnd times set-up over cfg.setupRounds fresh clusters, runs the
// untraced load on the last one and reports the end-to-end metrics.
func runEndToEnd(cfg config, base string) (report, error) {
	var setups []float64
	var t *trial
	for k := 0; k < cfg.setupRounds; k++ {
		tr, d, err := startTrial(cfg.workload, cfg.seed, dataDirFor(base, k), trialOptions{})
		if err != nil {
			return report{}, err
		}
		setups = append(setups, d.Seconds())
		if k < cfg.setupRounds-1 {
			tr.stop()
		} else {
			t = tr
		}
	}
	defer t.stop()
	lr := t.runLoad(cfg.seconds, nil)
	rep := report{
		attempted: lr.submitted,
		failed:    lr.submitted - lr.accepted,
		checkErrs: t.verify(0),
	}
	if lr.inWindow == 0 {
		return report{}, fmt.Errorf("no request completed in the measured window")
	}
	done := float64(lr.inWindow)
	rates, p99s := lr.sliceRates(), lr.sliceP99s()
	rep.notes = []string{
		fmt.Sprintf("per-%v throughput_rps %s", slice, fmtList(rates)),
		fmt.Sprintf("per-%v latency_p99_ms %s", slice, fmtList(p99s)),
	}
	rep.metrics = map[string]metric{
		"setup_s":        {percentile(setups, 0.5), "s"},
		"throughput_rps": {percentile(rates, 0.5), "req/s"},
		"latency_p50_ms": {percentile(lr.latencyMs, 0.50), "ms"},
		"latency_p99_ms": {percentile(p99s, 0.5), "ms"},
		"cpu_us_per_req": {lr.cpuSec * 1e6 / done, "us"},
		"allocs_per_req": {float64(lr.allocs) / done, "allocs"},
		"heap_live_mb":   {percentile(lr.liveMB, 0.5), "MB"},
	}
	rep.extra = map[string]metric{
		"max_rss_mb":      {maxRSSMB(), "MB"},
		"failed_ratio":    {ratio(float64(rep.failed), float64(lr.submitted)), "ratio"},
		"latency_samples": {float64(len(lr.latencyMs)), "count"},
	}
	return rep, nil
}

// verify runs every output check on a drained trial; tracedICs is the
// instance-change count a traced run observed.
func (t *trial) verify(tracedICs int64) []error {
	var errs []error
	if err := t.replyErr(); err != nil {
		errs = append(errs, fmt.Errorf("reply check: %w", err))
	}
	if err := t.checkState(); err != nil {
		errs = append(errs, fmt.Errorf("state check: %w", err))
	}
	if err := checkInstanceChanges(t.nodeCPIs(), tracedICs); err != nil {
		errs = append(errs, fmt.Errorf("instance-change check: %w", err))
	}
	return errs
}

// protocolMsgTypes are the replica-to-replica messages counted by
// pbft.msgs_per_req.
var protocolMsgTypes = []string{"PROPAGATE", "PRE-PREPARE", "PREPARE", "COMMIT", "CHECKPOINT"}

// runLayers runs the load twice on fresh clusters, untraced then traced,
// and reports the per-layer metrics of the traced run, the layer replays
// and the tracing overhead between the two. Each window is half of
// cfg.seconds, so a traced run takes about as long as an untraced one.
func runLayers(cfg config, base string) (report, error) {
	w := cfg.workload
	seconds := cfg.seconds / 2
	ref, _, err := startTrial(w, cfg.seed, dataDirFor(base, 0), trialOptions{})
	if err != nil {
		return report{}, err
	}
	refLoad := ref.runLoad(seconds, nil)
	refErrs := ref.verify(0)
	ref.stop()

	reg := obs.NewRegistry()
	mt := &memTracer{}
	timing := &appTiming{}
	t, _, err := startTrial(w, cfg.seed, dataDirFor(base, 1), trialOptions{metrics: reg, tracer: mt, timing: timing})
	if err != nil {
		return report{}, err
	}
	defer t.stop()
	var snap0, snap1 []obs.Metric
	var exec0ns, exec0n, exec1ns, exec1n int64
	lr := t.runLoad(seconds, func(start bool) {
		if start {
			snap0 = reg.Snapshot()
			exec0ns, exec0n = timing.ns.Load(), timing.calls.Load()
			mt.recording.Store(true)
			return
		}
		mt.recording.Store(false)
		exec1ns, exec1n = timing.ns.Load(), timing.calls.Load()
		snap1 = reg.Snapshot()
	})
	rep := report{
		attempted: refLoad.submitted + lr.submitted,
		failed:    refLoad.submitted - refLoad.accepted + lr.submitted - lr.accepted,
		checkErrs: append(refErrs, t.verify(mt.icCount.Load())...),
	}
	if lr.inWindow == 0 || refLoad.inWindow == 0 {
		return report{}, fmt.Errorf("no request completed in the measured window")
	}

	var replayS, recoverS float64
	if w.durable {
		replayS, recoverS, err = t.restartReplica(1)
		if err != nil {
			rep.checkErrs = append(rep.checkErrs, err)
		}
	}

	events := mt.snapshot()
	cp := obs.CriticalPaths(events, 0)
	var ppCount, ppRefs float64
	var orderMs []float64
	for _, ev := range events {
		switch {
		case ev.Type == obs.EvPrePrepare && ev.Instance == types.MasterInstance:
			ppCount++
			ppRefs += float64(ev.Count)
		case ev.Type == obs.EvSpan && ev.Stage == obs.StageOrder && ev.Instance == types.MasterInstance:
			orderMs = append(orderMs, ms(ev.Dur))
		}
	}
	batch := ratio(ppRefs, ppCount)
	rp, err := replayLayers(w, cfg.seed, roundBatch(batch))
	if err != nil {
		return report{}, err
	}
	if err := writeJSONL(filepath.Join(cfg.workDir, w.name+".trace.jsonl"), events); err != nil {
		return report{}, err
	}

	done := float64(lr.inWindow)
	nodes := float64(t.lc.Cluster.N)
	delta := func(name string) float64 { return counterDelta(snap0, snap1, name) }
	var msgs float64
	for _, typ := range protocolMsgTypes {
		msgs += delta(obs.LabeledName("rbft_messages_out_total", "type", typ))
	}
	executed := delta("rbft_executed_total")
	fsyncSum, fsyncCount := histDelta(snap0, snap1, "rbft_wal_fsync_seconds")
	hits, misses := delta("rbft_sigcache_hits_total"), delta("rbft_sigcache_misses_total")
	refTput := float64(refLoad.inWindow) / refLoad.win.seconds()
	tracedTput := done / lr.win.seconds()

	rep.metrics = map[string]metric{
		"transport.bytes_per_req":      {delta("rbft_transport_bytes_out_total") / done, "B"},
		"transport.frames_per_send":    {ratio(delta("rbft_transport_frames_coalesced_total"), delta("rbft_transport_batches_sent_total")), "frames"},
		"message.preverify_ms":         {stageP50Ms(cp, obs.StagePreverify), "ms"},
		"message.decode_request_us":    {rp.decodeRequestUs, "us"},
		"message.decode_preprepare_us": {rp.decodePrePrepareUs, "us"},
		"message.decode_allocs":        {rp.decodeAllocs, "allocs"},
		"crypto.sigcache_hit_ratio":    {ratio(hits, hits+misses), "ratio"},
		"crypto.verify_us":             {rp.verifyUs, "us"},
		"crypto.authenticator_us":      {rp.authenticatorUs, "us"},
		"client.submit_us":             {percentile(lr.submitUs, 0.5), "us"},
		"runtime.ingress_wait_ms":      {stageP50Ms(cp, obs.StageIngress), "ms"},
		"runtime.egress_ms":            {stageP50Ms(cp, obs.StageEgress), "ms"},
		"runtime.dropped":              {delta("rbft_egress_dropped_total") + delta("rbft_transport_dropped_total") + delta("rbft_ingress_rejected_total"), "count"},
		"pbft.batch_size":              {batch, "refs"},
		"pbft.msgs_per_req":            {msgs / done, "msgs"},
		"pbft.propose_ms":              {stageP50Ms(cp, obs.StagePropose), "ms"},
		"pbft.prepare_quorum_ms":       {stageP50Ms(cp, obs.StagePrepareQuorum), "ms"},
		"pbft.commit_quorum_ms":        {stageP50Ms(cp, obs.StageCommitQuorum), "ms"},
		"core.order_ms":                {percentile(orderMs, 0.5), "ms"},
		"core.on_verified_us":          {rp.onVerifiedUs, "us"},
		"monitor.instance_changes":     {float64(mt.icCount.Load()), "count"},
		"exec.ops_per_wave":            {ratio(executed, delta("rbft_exec_waves_total")), "ops"},
		"exec.conflict_ratio":          {ratio(delta("rbft_exec_conflicts_total"), executed), "ratio"},
		"exec.execute_ms":              {stageP50Ms(cp, obs.StageExecute), "ms"},
		"app.execute_us":               {ratio(float64(exec1ns-exec0ns)/1e3, float64(exec1n-exec0n)), "us"},
		"wal.fsyncs_per_req":           {delta("rbft_wal_fsyncs_total") / nodes / done, "fsyncs"},
		"wal.bytes_per_req":            {delta("rbft_wal_bytes_total") / nodes / done, "B"},
		"wal.fsync_ms":                 {ratio(fsyncSum*1e3, float64(fsyncCount)), "ms"},
		"wal.durable_wait_ms":          {stageP50Ms(cp, obs.StageWALDurable), "ms"},
		"wal.replay_s":                 {replayS, "s"},
		"recover_s":                    {recoverS, "s"},
		"obs.trace_overhead":           {(refTput - tracedTput) / refTput, "ratio"},
		"loadgen.late_p99_ms":          {percentile(lr.lateMs, 0.99), "ms"},
	}
	rep.extra = map[string]metric{
		"traced_requests":                 {float64(cp.Requests), "count"},
		"untraced_throughput":             {refTput, "req/s"},
		"traced_throughput":               {tracedTput, "req/s"},
		"traced_latency_p50_ms":           {percentile(lr.latencyMs, 0.5), "ms"},
		"traced_failed_requests":          {float64(lr.submitted - lr.accepted), "count"},
		"replay.decode_preprepare_allocs": {rp.decodePrePrepareAlloc, "allocs"},
		"replay.verify_allocs":            {rp.verifyAllocs, "allocs"},
		"replay.authenticator_allocs":     {rp.authenticatorAllocs, "allocs"},
		"replay.on_verified_allocs":       {rp.onVerifiedAllocs, "allocs"},
	}
	return rep, nil
}

// restartReplica crashes and restarts node id from its WAL, then waits
// until its application state matches the other replicas'. It returns the
// RestartNode call's duration and the time until the state matched.
func (t *trial) restartReplica(id types.NodeID) (replayS, recoverS float64, err error) {
	start := time.Now()
	if err := t.lc.RestartNode(id); err != nil {
		return 0, 0, fmt.Errorf("restart node %d: %w", id, err)
	}
	replay := time.Since(start)
	deadline := start.Add(recoverTimeout)
	for {
		err := t.stateErr()
		if err == nil {
			return replay.Seconds(), time.Since(start).Seconds(), nil
		}
		if time.Now().After(deadline) {
			return replay.Seconds(), 0, fmt.Errorf("recovery check: node %d did not catch up within %v: %w", id, recoverTimeout, err)
		}
		time.Sleep(time.Millisecond)
	}
}
