// Command perfbench is the repository's benchmark. It runs one named
// workload for a fixed time, checks the simulator's outputs, and prints
// its metrics: the end-to-end metrics of BENCHMARK.json by default, or with
// -trace 1 a separate traced run's per-layer metrics. The last line of
// standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {name: {"value": v, "unit": u}}}
//
// Usage (normally through run.py, which builds this program first):
//
//	perfbench -workload m3v_tilemux -seed 1 -seconds 20 -trace 0
//
// Workloads: m3v_tilemux, m3x_controller (sim.go) and m3vd_dup (serve.go).
// See README.md for the metrics and what each should move.
package main

import (
	"cmp"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"syscall"
	"time"
)

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the final JSON line.
type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// opts are the command-line settings shared by the workloads.
type opts struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	outDir   string // spans and CPU profiles of traced runs: <build dir>/traces
}

func main() {
	o, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(2)
	}
	var run func(opts) (*report, error)
	switch o.workload {
	case "m3v_tilemux":
		run = func(o opts) (*report, error) { return runSim(o, false) }
	case "m3x_controller":
		run = func(o opts) (*report, error) { return runSim(o, true) }
	case "m3vd_dup":
		run = runServe
	default:
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want m3v_tilemux, m3x_controller or m3vd_dup)\n", o.workload)
		os.Exit(2)
	}
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	printMetrics(rep)
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func parseFlags(args []string) (opts, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o opts
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload name")
	fs.Uint64Var(&o.seed, "seed", 1, "input seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "measurement time in seconds")
	fs.IntVar(&trace, "trace", 0, "1 for the traced per-layer run")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	switch {
	case fs.NArg() > 0:
		return o, fmt.Errorf("unexpected arguments %q", fs.Args())
	case o.seconds <= 0:
		return o, fmt.Errorf("-seconds must be positive")
	case trace != 0 && trace != 1:
		return o, fmt.Errorf("-trace must be 0 or 1")
	}
	o.traced = trace == 1
	o.outDir = filepath.Join(cmp.Or(os.Getenv("CARGO_TARGET_DIR"), ".bench_build"), "traces")
	return o, nil
}

// printMetrics writes the human-readable metric table to standard output.
func printMetrics(rep *report) {
	names := make([]string, 0, len(rep.Metrics))
	for name := range rep.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	rate := 0.0
	if rep.Attempted > 0 {
		rate = float64(rep.Failed) / float64(rep.Attempted)
	}
	fmt.Printf("error_rate           %.6g fraction (%d of %d failed)\n", rate, rep.Failed, rep.Attempted)
	for _, name := range names {
		m := rep.Metrics[name]
		fmt.Printf("%-20s %.6g %s\n", name, m.Value, m.Unit)
	}
}

// --- shared measurement helpers ---------------------------------------------

// timesUntil calls fn until the measurement time has passed (at least once)
// and returns the duration of each call.
func timesUntil(d time.Duration, fn func() error) ([]time.Duration, error) {
	var out []time.Duration
	start := time.Now()
	for len(out) == 0 || time.Since(start) < d {
		t0 := time.Now()
		if err := fn(); err != nil {
			return out, err
		}
		out = append(out, time.Since(t0))
	}
	return out, nil
}

// median returns the median of xs (the mean of the middle two for an even
// count), or 0 for none. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

// quantile returns the q-quantile of xs by the nearest-rank rule, or 0 for
// none. xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

// peakRSSMB reports the process's peak resident set size in MiB.
func peakRSSMB() (float64, error) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, fmt.Errorf("getrusage: %w", err)
	}
	return float64(ru.Maxrss) / 1024, nil // Linux reports KiB
}

// mix derives an independent 64-bit seed from a base seed and a salt
// (splitmix64 finalizer).
func mix(seed, salt uint64) uint64 {
	z := seed + 0x9e3779b97f4a7c15*(salt+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}
