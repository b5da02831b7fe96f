package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"m3v/internal/bench"
	"m3v/internal/sim"
	"m3v/internal/trace"
)

// TestRegistryAgreement pins the canonical experiment list m3vbench runs
// and checks that every ID resolves through bench.Lookup, the dispatch
// m3vbench shares with the m3vd serving layer.
func TestRegistryAgreement(t *testing.T) {
	want := []string{"table1", "sloc", "fig6", "fig7", "fig8", "fig9", "voice", "fig10", "ablation"}
	var ids []string
	for _, e := range bench.Experiments() {
		ids = append(ids, e.ID)
	}
	if !reflect.DeepEqual(ids, want) {
		t.Errorf("registry = %v, want %v", ids, want)
	}
	for _, id := range want {
		if e, ok := bench.Lookup(id); !ok || e.Run == nil {
			t.Errorf("experiment %q has no driver", id)
		}
	}
}

// TestParseOptionsDefaults pins the default option values.
func TestParseOptionsDefaults(t *testing.T) {
	o, err := parseOptions(nil)
	if err != nil {
		t.Fatalf("parseOptions(nil): %v", err)
	}
	if o.run != "" || o.list || o.parallel != runtime.NumCPU() {
		t.Errorf("defaults = %+v", o)
	}
	if o.params.Fig9Series != nil {
		t.Errorf("fig9Series default = %v, want nil", o.params.Fig9Series)
	}
	if o.params.FaultSeed != 1 || o.params.FaultRate != 0 {
		t.Errorf("fault defaults = seed %d rate %g, want 1/0", o.params.FaultSeed, o.params.FaultRate)
	}
}

// TestParseOptionsErrors covers the validation paths.
func TestParseOptionsErrors(t *testing.T) {
	cases := []struct {
		name string
		args []string
		want string
	}{
		{"positional", []string{"fig6"}, "unexpected arguments"},
		{"bad parallel", []string{"-parallel", "0"}, "-parallel must be >= 1"},
		{"bad rate", []string{"-fault-rate", "2"}, "-fault-rate must be in [0,1]"},
		{"bad tiles", []string{"-fig9-tiles", "1,x"}, "bad -fig9-tiles entry"},
		{"zero tile", []string{"-fig9-tiles", "0"}, "bad -fig9-tiles entry"},
		{"bad interval", []string{"-sample-interval", "later"}, "-sample-interval"},
		{"series needs interval", []string{"-series", "s.json"}, "-series requires -sample-interval"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if _, err := parseOptions(c.args); err == nil || !strings.Contains(err.Error(), c.want) {
				t.Errorf("parseOptions(%v) err = %v, want containing %q", c.args, err, c.want)
			}
		})
	}
}

// TestParseOptionsFig9Tiles checks the tile-series override parsing.
func TestParseOptionsFig9Tiles(t *testing.T) {
	o, err := parseOptions([]string{"-fig9-tiles", "1, 2,4", "-run", "fig9", "-fault-rate", "0.1", "-fault-seed", "7"})
	if err != nil {
		t.Fatalf("parseOptions: %v", err)
	}
	if !reflect.DeepEqual(o.params.Fig9Series, []int{1, 2, 4}) {
		t.Errorf("fig9Series = %v, want [1 2 4]", o.params.Fig9Series)
	}
	if o.run != "fig9" || o.params.FaultRate != 0.1 || o.params.FaultSeed != 7 {
		t.Errorf("options = %+v", o)
	}
}

// TestListExperiments checks the -list output covers every experiment in
// registry order.
func TestListExperiments(t *testing.T) {
	var out strings.Builder
	listExperiments(&out)
	lines := strings.Fields(out.String())
	var want []string
	for _, e := range bench.Experiments() {
		want = append(want, e.ID)
	}
	if !reflect.DeepEqual(lines, want) {
		t.Errorf("-list = %v, want %v", lines, want)
	}
}

// TestLoadBenchReportV1 checks that the reader still accepts the first
// schema version: the fields added in v2 read as zero, and a legacy "sched"
// key is ignored.
func TestLoadBenchReportV1(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v1.json")
	v1 := `{
  "schema": "m3vbench/v1",
  "timestamp": "2026-08-08T09:14:25Z",
  "go_version": "go1.24.0",
  "num_cpu": 1,
  "parallel": 1,
  "sched": "wheel",
  "experiments": [
    {"id": "fig9", "title": "Scalability", "wall_ms": 6244.193,
     "rows": [{"label": "M3v find 1", "value": 87.7, "unit": "runs/s", "paper": 84}]}
  ],
  "total_wall_ms": 12601.35
}`
	if err := os.WriteFile(path, []byte(v1), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := loadBenchReport(path)
	if err != nil {
		t.Fatalf("loadBenchReport(v1): %v", err)
	}
	if r.Schema != "m3vbench/v1" || r.TotalWallMs != 12601.35 || len(r.Experiments) != 1 {
		t.Errorf("report = %+v", r)
	}
	exp := r.Experiments[0]
	if exp.WallMs != 6244.193 || exp.Rows[0].Label != "M3v find 1" {
		t.Errorf("experiment = %+v", exp)
	}
	if exp.EventsExecuted != 0 || exp.EventsPerSec != 0 {
		t.Errorf("v1 report must read with zero v2 fields, got %d / %g",
			exp.EventsExecuted, exp.EventsPerSec)
	}
}

// withLegacySched adds the "sched" key that v2/v3 reports written while the
// event queue was selectable carry (BENCH_m3vbench.json among them).
func withLegacySched(t *testing.T, data []byte) []byte {
	t.Helper()
	if !strings.HasPrefix(string(data), "{\n") {
		t.Fatalf("unexpected report encoding: %.20q", data)
	}
	return []byte("{\n  \"sched\": \"wheel\",\n" + string(data[2:]))
}

// TestLoadBenchReportV2RoundTrip writes a v2 report through the same
// marshaling main uses, plus the legacy "sched" key, and reads it back.
func TestLoadBenchReportV2RoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v2.json")
	want := benchReport{
		Schema:    "m3vbench/v2",
		GoVersion: "go1.24.0",
		NumCPU:    1,
		Parallel:  2,
		Experiments: []benchExperiment{{
			ID: "fig9", Title: "Scalability", WallMs: 5000,
			EventsExecuted: 2400000, EventsPerSec: 480000,
			Rows: []benchRow{{Label: "M3v find 1", Value: 87.7, Unit: "runs/s"}},
		}},
		TotalWallMs: 5000,
	}
	data, err := json.MarshalIndent(&want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, withLegacySched(t, data), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadBenchReport(path)
	if err != nil {
		t.Fatalf("loadBenchReport(v2): %v", err)
	}
	if !reflect.DeepEqual(got, &want) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, &want)
	}
}

// TestParseOptionsSampling covers the telemetry flags.
func TestParseOptionsSampling(t *testing.T) {
	o, err := parseOptions([]string{"-sample-interval", "100ns", "-series", "s.json"})
	if err != nil {
		t.Fatalf("parseOptions: %v", err)
	}
	if o.params.SampleInterval != 100*sim.Nanosecond || o.seriesFile != "s.json" {
		t.Errorf("sampling options = every %v, series %q", o.params.SampleInterval, o.seriesFile)
	}
}

// TestLoadBenchReportV3RoundTrip writes a current-schema report with the
// tail-latency fields, plus the legacy "sched" key, and reads it back.
func TestLoadBenchReportV3RoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "v3.json")
	want := benchReport{
		Schema:    benchSchema,
		GoVersion: "go1.24.0",
		NumCPU:    1,
		Parallel:  2,
		Experiments: []benchExperiment{{
			ID: "fig9", Title: "Scalability", WallMs: 5000,
			EventsExecuted: 2400000, EventsPerSec: 480000,
			P99SwitchPs: 8_750_000, P99CmdPs: 7_260_625,
			Rows: []benchRow{{Label: "M3v find 1", Value: 87.7, Unit: "runs/s"}},
		}},
		TotalWallMs: 5000,
	}
	data, err := json.MarshalIndent(&want, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, withLegacySched(t, data), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := loadBenchReport(path)
	if err != nil {
		t.Fatalf("loadBenchReport(v3): %v", err)
	}
	if !reflect.DeepEqual(got, &want) {
		t.Errorf("round trip mismatch:\ngot  %+v\nwant %+v", got, &want)
	}
}

// TestTailLatencies checks the cross-recorder histogram merge behind the
// report's p99 fields.
func TestTailLatencies(t *testing.T) {
	a := trace.NewRecorder()
	b := trace.NewRecorder()
	for i := int64(1); i <= 50; i++ {
		a.Metrics().Histogram("tile01.mux.switch_time").Observe(i * 1000)
		b.Metrics().Histogram("tile02.mux.switch_time").Observe(i * 2000)
		a.Metrics().Histogram("tile01.dtu.cmd_time").Observe(i * 100)
	}
	p99Switch, p99Cmd := tailLatencies([]*trace.Recorder{a, b})
	// The merged switch distribution tops out near 100us; cmd near 5ns.
	if p99Switch < 90_000 || p99Switch > 100_000 {
		t.Errorf("p99Switch = %d, want ~99000 (error <= 1/16)", p99Switch)
	}
	if p99Cmd < 4_500 || p99Cmd > 5_000 {
		t.Errorf("p99Cmd = %d, want ~4950 (error <= 1/16)", p99Cmd)
	}
	if s, c := tailLatencies(nil); s != 0 || c != 0 {
		t.Errorf("tailLatencies(nil) = %d/%d, want 0/0", s, c)
	}
}

// TestLoadBenchReportBadSchema rejects unknown schema versions.
func TestLoadBenchReportBadSchema(t *testing.T) {
	path := filepath.Join(t.TempDir(), "bad.json")
	if err := os.WriteFile(path, []byte(`{"schema": "m3vbench/v99"}`), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := loadBenchReport(path); err == nil ||
		!strings.Contains(err.Error(), "unsupported schema") {
		t.Errorf("loadBenchReport(bad schema) err = %v, want unsupported schema", err)
	}
}

// TestPrintBaselineDelta checks the -baseline comparison output for both a
// matched experiment and one missing from the old report.
func TestPrintBaselineDelta(t *testing.T) {
	old := &benchReport{
		Schema:      "m3vbench/v1",
		Experiments: []benchExperiment{{ID: "fig9", WallMs: 1000}},
		TotalWallMs: 1000,
	}
	cur := &benchReport{
		Schema: "m3vbench/v2",
		Experiments: []benchExperiment{
			{ID: "fig9", WallMs: 800},
			{ID: "fig6", WallMs: 50},
		},
		TotalWallMs: 850,
	}
	var out strings.Builder
	printBaselineDelta(&out, old, cur)
	got := out.String()
	for _, want := range []string{
		"baseline fig9: 1000ms -> 800ms (-20.0%)",
		"baseline fig6: no previous wall clock",
		"baseline total (m3vbench/v1): 1000ms -> 850ms (-15.0%)",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("baseline output missing %q:\n%s", want, got)
		}
	}
}
