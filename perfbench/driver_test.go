package main

import (
	"bytes"
	"encoding/json"
	"testing"

	"m3v/internal/bench"
	"m3v/internal/traces"
)

// TestDriverMatchesFig9Point pins the benchmark's own driver to the
// experiment driver: on the paper traces at one worker tile both must give
// the same runs/s, bit for bit, on both systems.
func TestDriverMatchesFig9Point(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates eight points")
	}
	for _, m3x := range []bool{false, true} {
		for _, mk := range []func() *traces.Trace{traces.Find, traces.SQLite} {
			p := &point{label: mk().Name, m3x: m3x, tiles: 1, traces: []*traces.Trace{mk()}}
			res, err := runPoint(p, nil)
			if err != nil {
				t.Fatal(err)
			}
			if want := bench.Fig9Point(m3x, 1, mk); res.runsPerSec != want {
				t.Errorf("m3x=%v %s: driver %v runs/s, bench.Fig9Point %v", m3x, p.label, res.runsPerSec, want)
			}
		}
	}
}

// TestTracedPointMatchesUntraced checks that the traced run's spans and
// event stream leave the simulated results unchanged.
func TestTracedPointMatchesUntraced(t *testing.T) {
	mk := func() *point {
		return &point{label: "sqlite", tiles: 1, traces: []*traces.Trace{SQLiteShaped(3)}}
	}
	plain, err := runPoint(mk(), nil)
	if err != nil {
		t.Fatal(err)
	}
	spans := newSpanLog()
	traced, err := runPoint(mk(), spans)
	if err != nil {
		t.Fatal(err)
	}
	if plain.runsPerSec != traced.runsPerSec || plain.simEnd != traced.simEnd || plain.counts != traced.counts {
		t.Errorf("traced point differs: %+v vs %+v", traced.counts, plain.counts)
	}
	calls := len(spans.durations(func(s *span) bool {
		return s.Parent != 0 && s.Name != "System.Run" &&
			s.Name != "core.New" && s.Name != "System.Shutdown"
	}))
	if int64(calls) != traced.fsOps {
		t.Errorf("%d call spans for %d file-system calls", calls, traced.fsOps)
	}
}

func TestStreamShape(t *testing.T) {
	st, err := newStream(5)
	if err != nil {
		t.Fatal(err)
	}
	again, _ := newStream(5)
	if len(st.seq) != len(again.seq) || !bytes.Equal(bytes.Join(st.distinct, nil), bytes.Join(again.distinct, nil)) {
		t.Fatal("same seed, different stream")
	}
	if st.seq[0] != 0 || st.seq[1] != 1 {
		t.Errorf("stream starts %v, want the two fig9 requests", st.seq[:2])
	}
	// Distinct requests are introduced in order; a repeat names one
	// already sent. Half the stream repeats.
	next, repeats := 0, 0
	for _, idx := range st.seq {
		switch {
		case idx == next:
			next++
		case idx < next:
			repeats++
		default:
			t.Fatalf("request %d sent before request %d", idx, next)
		}
	}
	if next != len(st.distinct) || repeats != len(st.distinct) {
		t.Errorf("%d distinct and %d repeats, want %d of each", next, repeats, len(st.distinct))
	}
	allowed := map[string]bool{"experiment": true, "tiles": true, "fault_seed": true, "fault_rate": true}
	for _, body := range st.distinct {
		var fields map[string]any
		if err := json.Unmarshal(body, &fields); err != nil {
			t.Fatal(err)
		}
		for k := range fields {
			if !allowed[k] {
				t.Errorf("request %s sends field %q", body, k)
			}
		}
	}
}

// TestBatchCachesDuplicates serves a short stream and checks the serve
// layer's accounting: one job per distinct request, byte-identical
// duplicates.
func TestBatchCachesDuplicates(t *testing.T) {
	st := &stream{seq: []int{0, 1, 0, 2, 1, 2}}
	for _, r := range []request{
		{Experiment: "fig6", FaultSeed: 3, FaultRate: 0.01},
		{Experiment: "fig6", FaultSeed: 4, FaultRate: 0.01},
		{Experiment: "fig6"},
	} {
		b, _ := json.Marshal(r)
		st.distinct = append(st.distinct, b)
	}
	b, err := runBatch(st, true, nil)
	if err != nil {
		t.Fatal(err)
	}
	ck := &checker{st: st}
	ck.check(b)
	if ck.failed != 0 {
		t.Fatalf("%d of %d checks failed", ck.failed, ck.attempted)
	}
	if got := b.serveMet["serve.jobs_done"]; got != 3 {
		t.Errorf("%d jobs, want 3", got)
	}
	if b.counts.events == 0 || b.events != uint64(b.counts.events) {
		t.Errorf("recorders saw %d events, engine counter %d", b.counts.events, b.events)
	}
}

func TestParseTraces(t *testing.T) {
	out := []byte(`File: perfbench
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.chanrecv
             m3v/internal/sim.(*Proc).yield
-----------+-------------------------------------------------------
      50ms   m3v/internal/tilemux.(*Mux).switchTo
             m3v/internal/tilemux.(*Mux).run
-----------+-------------------------------------------------------
      20ms   runtime.scanobject
             runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
`)
	s, err := parseTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	if s.pkg["tilemux"] != 0.5 || s.chanShare != 0.3 || s.gcShare != 0.2 || s.pkg["sim"] != 0 {
		t.Errorf("shares %+v", s)
	}
	for fn, want := range map[string]string{
		"m3v/internal/sim.(*Engine).Run":             "sim",
		"m3v/internal/fault/scenarios.run":           "fault",
		"m3v/internal/bench.runPoints[go.shape.int]": "bench",
		"runtime.chansend":                           "",
		"m3v/perfbench.runPoint":                     "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
