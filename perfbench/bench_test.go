package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"rbft/internal/app"
	"rbft/internal/types"
)

// declared is the metric list of ../BENCHMARK.json.
type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadDeclared(t *testing.T) declared {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestSmokeEveryWorkload runs a one-second window of every workload in
// both modes and asserts that every declared metric is printed, in the
// report and the JSON line, with its declared unit, and that every output
// check passed.
func TestSmokeEveryWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("boots live clusters")
	}
	d := loadDeclared(t)
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			want := d.EndToEnd
			if traced {
				want = d.PerLayer
			}
			var out bytes.Buffer
			res, err := run(config{workload: w, seed: 7, seconds: 1, trace: traced, setupRounds: 2, workDir: t.TempDir()}, &out)
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("%s traced=%v: correct=%v attempted=%d failed=%d\n%s", w.name, traced, res.Correct, res.Attempted, res.Failed, out.String())
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, declared %d", w.name, traced, len(res.Metrics), len(want))
			}
			for _, m := range want {
				got, ok := res.Metrics[m.Name]
				if !ok || got.Unit != m.Unit {
					t.Errorf("%s traced=%v: metric %s = %+v, want unit %q", w.name, traced, m.Name, got, m.Unit)
				}
				if !strings.Contains(out.String(), m.Name) {
					t.Errorf("%s traced=%v: report does not print %s", w.name, traced, m.Name)
				}
			}
		}
	}
}

func twoGens(w workload, puts int) []*opGen {
	gens := []*opGen{newOpGen(w, 3, clientIDs[0]), newOpGen(w, 3, clientIDs[1])}
	for _, g := range gens {
		for i := 0; i < puts; i++ {
			g.next()
		}
	}
	return gens
}

// firstPut returns the id and key of g's first PUT and the value it wrote.
func firstPut(t *testing.T, g *opGen) (types.RequestID, int32, []byte) {
	t.Helper()
	for i, op := range g.ops {
		if op.put {
			id := types.RequestID(i + 1)
			return id, op.key, appendValue(nil, g.client, id, g.filler)
		}
	}
	t.Fatal("no PUT generated")
	return 0, 0, nil
}

func TestCheckValueRejectsUnwrittenValue(t *testing.T) {
	w, _ := findWorkload("kv-read-closed")
	gens := twoGens(w, 200)
	id, key, v := firstPut(t, gens[1])
	if err := checkValue(gens[0], key, v, gens); err != nil {
		t.Fatalf("value written by client 2 rejected: %v", err)
	}
	if err := checkValue(gens[0], key, []byte("NOT_FOUND"), gens); err != nil {
		t.Fatalf("NOT_FOUND rejected: %v", err)
	}
	bad := map[string][]byte{
		"other key":       nil,
		"corrupted value": append(append([]byte(nil), v[:len(v)-1]...), v[len(v)-1]^1),
		"unknown request": appendValue(nil, gens[1].client, id+100000, gens[1].filler),
		"unknown client":  appendValue(nil, 9, id, gens[1].filler),
		"no header":       []byte("garbage"),
	}
	for name, val := range bad {
		k := key
		if val == nil {
			val, k = v, key+1
		}
		if err := checkValue(gens[0], k, val, gens); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckReplyRejectsGetOfUnwrittenValue(t *testing.T) {
	w, _ := findWorkload("kv-read-closed")
	gens := twoGens(w, 200)
	g := gens[0]
	var getID types.RequestID
	for i, op := range g.ops {
		if !op.put {
			getID = types.RequestID(i + 1)
			break
		}
	}
	if err := checkReply(g, getID, []byte("1/999999/x"), gens); err == nil {
		t.Fatal("GET returning a value no PUT wrote was accepted")
	}
	putID, _, _ := firstPut(t, g)
	if err := checkReply(g, putID, []byte("ERR"), gens); err == nil {
		t.Fatal("PUT replying ERR was accepted")
	}
}

func TestCheckSnapshotsRejectsDivergence(t *testing.T) {
	w, _ := findWorkload("kv-write4k-closed")
	gens := twoGens(w, 50)
	_, key, v := firstPut(t, gens[0])
	good := map[string]string{kvKey(int(key)): string(v)}
	if err := checkSnapshots([]map[string]string{good, good}, gens); err != nil {
		t.Fatalf("identical valid snapshots rejected: %v", err)
	}
	cases := map[string][]map[string]string{
		"different value": {good, {kvKey(int(key)): string(v[:len(v)-1])}},
		"missing key":     {good, {}},
		"extra key":       {good, {kvKey(int(key)): string(v), "k1999": "x"}},
		"unwritten value": {{kvKey(int(key)): "2/1/zzz"}, {kvKey(int(key)): "2/1/zzz"}},
	}
	for name, snaps := range cases {
		if err := checkSnapshots(snaps, gens); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

func TestCheckCountersRejectsDivergence(t *testing.T) {
	w, _ := findWorkload("counter-closed")
	l := newReqLog(w, 1, clientIDs[0])
	apps := []*app.Counter{app.NewCounter(), app.NewCounter()}
	now := time.Now()
	for id := types.RequestID(1); id <= 3; id++ {
		op := l.gen.next()
		l.sent = append(l.sent, now)
		l.done = append(l.done, now)
		for _, a := range apps {
			a.Execute(clientIDs[0], id, op)
		}
	}
	if err := checkCounters(apps, []*reqLog{l}); err != nil {
		t.Fatalf("matching replicas rejected: %v", err)
	}
	apps[1].Execute(clientIDs[1], 1, encodeCounterOp(1))
	if err := checkCounters(apps, []*reqLog{l}); err == nil {
		t.Fatal("diverged fingerprints accepted")
	}
	// One replica alone, executing an op no accepted request carried.
	apps[0].Execute(clientIDs[0], 4, encodeCounterOp(5))
	if err := checkCounters(apps[:1], []*reqLog{l}); err == nil {
		t.Fatal("total above the sum of accepted deltas accepted")
	}
}

func TestCheckInstanceChangesRejectsNonZero(t *testing.T) {
	if err := checkInstanceChanges([]uint64{0, 0, 0, 0}, 0); err != nil {
		t.Fatalf("zero instance changes rejected: %v", err)
	}
	if err := checkInstanceChanges([]uint64{0, 1, 0, 0}, 0); err == nil {
		t.Fatal("a node's CPI of 1 accepted")
	}
	if err := checkInstanceChanges([]uint64{0, 0, 0, 0}, 2); err == nil {
		t.Fatal("traced instance changes accepted")
	}
}
