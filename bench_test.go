package m3v_test

// Benchmark harness: one testing.B benchmark per table and figure of the
// paper's evaluation (§6). Each benchmark runs the corresponding experiment
// driver and reports the reproduced values as custom metrics; the printed
// tables also show the paper's published numbers side by side.
//
//	go test -bench=. -benchmem
//
// Wall-clock time measures the simulator, not the modelled system; the
// custom metrics carry the simulated results.

import (
	"strconv"
	"strings"
	"testing"

	"m3v/internal/bench"
	"m3v/internal/sim"
	"m3v/internal/traces"
)

// runExp runs one experiment driver with the default parameters.
func runExp(b *testing.B, exp func(bench.Params, *sim.Canceler) (*bench.Result, error)) *bench.Result {
	b.Helper()
	r, err := exp(bench.Params{}, nil)
	if err != nil {
		b.Fatal(err)
	}
	return r
}

// report prints the experiment table and exports each row as a benchmark
// metric (metric units must not contain whitespace). Two distinct labels can
// collapse to the same metric name once spaces become underscores ("find 1"
// vs "find_1"); ReportMetric would then silently keep only the last value,
// so colliding names get a #index suffix to keep every row visible.
func report(b *testing.B, r *bench.Result) {
	b.Helper()
	b.Log("\n" + r.String())
	used := make(map[string]bool, len(r.Rows))
	for i, m := range r.Rows {
		name := strings.ReplaceAll(strings.TrimSpace(m.Label), " ", "_")
		unit := strings.ReplaceAll(m.Unit, " ", "_")
		metric := name + "(" + unit + ")"
		if used[metric] {
			metric = name + "#" + strconv.Itoa(i) + "(" + unit + ")"
			if used[metric] {
				b.Fatalf("metric name %q still collides after dedup", metric)
			}
		}
		used[metric] = true
		b.ReportMetric(m.Value, metric)
	}
}

// TestReportMetricCollisions pins the dedup: labels that only differ in
// whitespace ("find 1" vs "find_1") must still export as distinct metrics.
func TestReportMetricCollisions(t *testing.T) {
	r := &bench.Result{ID: "collide", Title: "metric-name collisions"}
	r.Add("find 1", 1, "runs/s", 0)
	r.Add("find_1", 2, "runs/s", 0)
	r.Add("plain", 3, "us", 0)
	res := testing.Benchmark(func(b *testing.B) { report(b, r) })
	for metric, want := range map[string]float64{
		"find_1(runs/s)":   1,
		"find_1#1(runs/s)": 2,
		"plain(us)":        3,
	} {
		if got, ok := res.Extra[metric]; !ok {
			t.Errorf("metric %q missing (got %v)", metric, res.Extra)
		} else if got != want {
			t.Errorf("metric %q = %v, want %v", metric, got, want)
		}
	}
}

// BenchmarkTable1Complexity regenerates Table 1: the vDTU area accounting
// from the structural hardware model, including the cost of virtualization
// (~6% logic, four registers).
func BenchmarkTable1Complexity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, runExp(b, bench.Table1))
	}
}

// BenchmarkSoftwareComplexity regenerates the §6.1 SLOC comparison between
// the controller and TileMux.
func BenchmarkSoftwareComplexity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, runExp(b, bench.SoftwareComplexity))
	}
}

// BenchmarkFig6Microbench regenerates Figure 6: tile-local and cross-tile
// no-op RPCs on M³v against Linux's no-op syscall and double yield.
func BenchmarkFig6Microbench(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, runExp(b, bench.Fig6))
	}
}

// BenchmarkFig7FS regenerates Figure 7: file read/write throughput of the
// extent-based m3fs (shared and isolated) against Linux tmpfs.
func BenchmarkFig7FS(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, runExp(b, bench.Fig7))
	}
}

// BenchmarkFig8UDP regenerates Figure 8: 1-byte UDP round-trip latency to a
// directly connected peer.
func BenchmarkFig8UDP(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, runExp(b, bench.Fig8))
	}
}

// BenchmarkFig9Scalability regenerates Figure 9: throughput of the find and
// SQLite traceplayers with tile-local file systems, M³x vs M³v, across tile
// counts. This is the paper's headline scalability result.
func BenchmarkFig9Scalability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, runExp(b, bench.Fig9))
	}
}

// BenchmarkFig9FindOneTile is the single-tile slice of Figure 9 (fast):
// M³v should achieve about twice the throughput of M³x.
func BenchmarkFig9FindOneTile(b *testing.B) {
	for i := 0; i < b.N; i++ {
		m3v := bench.Fig9Point(false, 1, traces.Find)
		m3x := bench.Fig9Point(true, 1, traces.Find)
		b.ReportMetric(m3v, "M3v(runs/s)")
		b.ReportMetric(m3x, "M3x(runs/s)")
		b.ReportMetric(m3v/m3x, "speedup(x)")
	}
}

// BenchmarkVoiceAssistant regenerates §6.5.1: trigger-to-cloud latency of
// the IoT voice assistant with and without tile sharing.
func BenchmarkVoiceAssistant(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, runExp(b, bench.VoiceAssistant))
	}
}

// BenchmarkFig10Cloud regenerates Figure 10: the cloud key-value service
// under the five YCSB mixes, M³v isolated/shared vs Linux with user/system
// splits.
func BenchmarkFig10Cloud(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, runExp(b, bench.Fig10))
	}
}

// BenchmarkAblations regenerates the design-choice ablations DESIGN.md
// calls out, most importantly §3.5's rejected TileMux-mediation design.
func BenchmarkAblations(b *testing.B) {
	for i := 0; i < b.N; i++ {
		report(b, runExp(b, bench.Ablations))
	}
}
