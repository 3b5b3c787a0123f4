package main

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"time"

	"rbft/internal/app"
	"rbft/internal/types"
)

// convergeTimeout bounds the wait for every replica to reach the same state
// after the load has drained.
const convergeTimeout = 10 * time.Second

// checkReply validates one accepted result against the op that produced it.
// gens holds every client's generator: a GET may return any client's PUT.
func checkReply(g *opGen, id types.RequestID, result []byte, gens []*opGen) error {
	op, ok := g.op(id)
	if !ok {
		return fmt.Errorf("client %d: reply for request %d that was never generated", g.client, id)
	}
	switch {
	case g.w.app == counterApp:
		if len(result) != 8 {
			return fmt.Errorf("client %d request %d: counter reply has %d bytes, want 8", g.client, id, len(result))
		}
	case op.put:
		if string(result) != "OK" {
			return fmt.Errorf("client %d request %d: PUT replied %q", g.client, id, clip(result))
		}
	default:
		if err := checkValue(g, op.key, result, gens); err != nil {
			return fmt.Errorf("client %d request %d: GET %s: %w", g.client, id, kvKey(int(op.key)), err)
		}
	}
	return nil
}

// checkValue accepts NOT_FOUND or the exact value a generated PUT to key
// wrote. gens holds every client's generator; the value's header names the
// writer, whose generator must be among them.
func checkValue(g *opGen, key int32, v []byte, gens []*opGen) error {
	if string(v) == "NOT_FOUND" {
		return nil
	}
	parts := strings.SplitN(string(v), "/", 3)
	if len(parts) != 3 {
		return fmt.Errorf("value %q was written by no PUT", clip(v))
	}
	c, err1 := strconv.ParseInt(parts[0], 10, 32)
	id, err2 := strconv.ParseUint(parts[1], 10, 64)
	if err1 != nil || err2 != nil {
		return fmt.Errorf("value %q was written by no PUT", clip(v))
	}
	for _, w := range gens {
		if w.client != types.ClientID(c) {
			continue
		}
		op, ok := w.op(types.RequestID(id))
		if !ok || !op.put || op.key != key {
			break
		}
		want := appendValue(nil, w.client, types.RequestID(id), g.filler)
		if !bytes.Equal(v, want) {
			break
		}
		return nil
	}
	return fmt.Errorf("value %q was written by no PUT to this key", clip(v))
}

func clip(b []byte) string {
	if len(b) > 40 {
		return string(b[:40]) + "..."
	}
	return string(b)
}

// checkCounters verifies that every replica executed the same sequence
// (equal order-sensitive fingerprints) and that each client's total equals
// the sum of the deltas of its accepted requests.
func checkCounters(apps []*app.Counter, logs []*reqLog) error {
	for i := 1; i < len(apps); i++ {
		if a, b := apps[0].Fingerprint(), apps[i].Fingerprint(); a != b {
			return fmt.Errorf("node %d fingerprint %x differs from node 0's %x", i, b, a)
		}
	}
	for _, l := range logs {
		l.mu.Lock()
		var want uint64
		for j, d := range l.done {
			if !d.IsZero() {
				want += l.gen.ops[j].delta
			}
		}
		c := l.gen.client
		l.mu.Unlock()
		for i, a := range apps {
			if got := a.Total(c); got != want {
				return fmt.Errorf("node %d: client %d total %d, want %d (sum of accepted deltas)", i, c, got, want)
			}
		}
	}
	return nil
}

// checkSnapshots verifies that every replica holds the same store and that
// every stored value is one a generated PUT wrote to that key.
func checkSnapshots(snaps []map[string]string, gens []*opGen) error {
	for i := 1; i < len(snaps); i++ {
		if err := sameSnapshot(snaps[0], snaps[i]); err != nil {
			return fmt.Errorf("node %d differs from node 0: %w", i, err)
		}
	}
	if len(gens) == 0 {
		return nil
	}
	for k, v := range snaps[0] {
		idx, err := strconv.Atoi(strings.TrimPrefix(k, "k"))
		if err != nil || kvKey(idx) != k {
			return fmt.Errorf("unexpected key %q", clip([]byte(k)))
		}
		if err := checkValue(gens[0], int32(idx), []byte(v), gens); err != nil {
			return fmt.Errorf("key %s: %w", k, err)
		}
	}
	return nil
}

func sameSnapshot(a, b map[string]string) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d keys vs %d", len(a), len(b))
	}
	for k, v := range a {
		w, ok := b[k]
		if !ok {
			return fmt.Errorf("key %s missing", k)
		}
		if v != w {
			return fmt.Errorf("key %s holds %q vs %q", k, clip([]byte(v)), clip([]byte(w)))
		}
	}
	return nil
}

// checkInstanceChanges requires that no node changed its primary instance.
func checkInstanceChanges(cpis []uint64, traced int64) error {
	for i, c := range cpis {
		if c != 0 {
			return fmt.Errorf("node %d went through %d instance changes", i, c)
		}
	}
	if traced != 0 {
		return fmt.Errorf("trace recorded %d instance changes", traced)
	}
	return nil
}

// checkState waits for every replica to reach the same state, then runs
// the workload's state checks.
func (t *trial) checkState() error {
	deadline := time.Now().Add(convergeTimeout)
	for {
		err := t.stateErr()
		if err == nil || time.Now().After(deadline) {
			return err
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func (t *trial) stateErr() error {
	n := t.lc.Cluster.N
	logs := t.logs[:]
	if t.w.app == counterApp {
		apps := make([]*app.Counter, n)
		for i := range apps {
			apps[i] = t.app(i).(*app.Counter)
		}
		return checkCounters(apps, logs)
	}
	snaps := make([]map[string]string, n)
	for i := range snaps {
		snaps[i] = t.app(i).(*app.KV).Snapshot()
	}
	return checkSnapshots(snaps, t.gens())
}

// replyErr returns the first invalid reply any client received. Call it
// once the load has drained.
func (t *trial) replyErr() error {
	gens := t.gens()
	for _, l := range t.logs {
		l.mu.Lock()
		err := l.badErr
		for _, g := range l.gets {
			if err != nil {
				break
			}
			err = checkReply(l.gen, g.id, g.value, gens)
		}
		l.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}

// gens returns every client's generator. Call it once the load has drained.
func (t *trial) gens() []*opGen {
	gens := make([]*opGen, len(t.logs))
	for i, l := range t.logs {
		l.mu.Lock()
		gens[i] = l.gen
		l.mu.Unlock()
	}
	return gens
}
