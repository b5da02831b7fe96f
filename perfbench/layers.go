package main

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"m3v/internal/core"
	"m3v/internal/sim"
)

// perLayer lists the per-layer metrics of the traced run, in the order of
// BENCHMARK.json. Every workload reports all of them; a layer a workload
// does not exercise reports 0 (see README.md for which should be 0 where).
var perLayer = []struct{ name, unit string }{
	{"sim.events", "count"},
	{"sim.ns_per_event", "ns"},
	{"sim.handoff_ns", "ns"},
	{"sim.handoff_allocs", "count"},
	{"sim.cpu_share", "fraction"},
	{"runtime.chan_share", "fraction"},
	{"runtime.gc_share", "fraction"},
	{"tilemux.ctx_switches", "count"},
	{"tilemux.irqs", "count"},
	{"tilemux.cpu_share", "fraction"},
	{"dtu.sends", "count"},
	{"dtu.fetches", "count"},
	{"dtu.core_reqs", "count"},
	{"dtu.cpu_share", "fraction"},
	{"noc.packets", "count"},
	{"noc.bytes", "B"},
	{"noc.cpu_share", "fraction"},
	{"kernel.syscalls", "count"},
	{"kernel.cpu_share", "fraction"},
	{"m3x.forwards", "count"},
	{"m3x.remote_switches", "count"},
	{"m3x.cpu_share", "fraction"},
	{"m3fs.ops", "count"},
	{"m3fs.call_sim_ns", "ns"},
	{"m3fs.call_host_us", "us"},
	{"m3fs.cpu_share", "fraction"},
	{"activity.cpu_share", "fraction"},
	{"traces.cpu_share", "fraction"},
	{"trace.cpu_share", "fraction"},
	{"trace.overhead_frac", "fraction"},
	{"core.boot_ms", "ms"},
	{"core.cpu_share", "fraction"},
	{"serve.hits", "count"},
	{"serve.misses", "count"},
	{"serve.coalesced", "count"},
	{"serve.rejects", "count"},
	{"serve.hit_ratio", "fraction"},
	{"serve.req_per_s", "1/s"},
	{"serve.hit_p50_ms", "ms"},
	{"serve.hit_p99_ms", "ms"},
	{"serve.miss_p50_ms", "ms"},
	{"serve.miss_p90_ms", "ms"},
	{"serve.job_ms", "ms"},
	{"serve.wait_ms", "ms"},
	{"serve.cpu_share", "fraction"},
	{"fault.retries", "count"},
	{"fault.cpu_share", "fraction"},
}

// layerMetrics collects per-layer values by name.
type layerMetrics map[string]float64

// addShares records the profile's per-package self-time shares as
// <layer>.cpu_share and the runtime hand-off and GC shares. Packages
// without a per-layer metric (bench, stats, ...) are dropped by fill.
func (m layerMetrics) addShares(s profileShares) {
	for pkg, v := range s.pkg {
		m[pkg+".cpu_share"] = v
	}
	m["runtime.chan_share"] = s.chanShare
	m["runtime.gc_share"] = s.gcShare
}

// fill copies the metrics into the report, one entry per perLayer name.
func (m layerMetrics) fill(rep *report) {
	for _, l := range perLayer {
		rep.Metrics[l.name] = metric{m[l.name], l.unit}
	}
}

// --- CPU profile --------------------------------------------------------------

func startProfile(path string) (*os.File, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return nil, err
	}
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, err
	}
	return f, nil
}

// profileShares is a CPU profile rolled up by package.
type profileShares struct {
	pkg       map[string]float64 // self-time share per m3v/internal/<layer>, keyed <layer>
	chanShare float64            // samples inside channel send/receive, park or ready
	gcShare   float64            // samples inside the garbage collector
}

// Runtime functions whose samples count as the engine/process hand-off
// (runtime.chan_share) and as garbage collection (runtime.gc_share).
var (
	chanFuncs = map[string]bool{
		"runtime.chansend": true, "runtime.chanrecv": true,
		"runtime.park_m": true, "runtime.ready": true,
	}
	gcFuncs = map[string]bool{
		"runtime.gcBgMarkWorker": true, "runtime.gcAssistAlloc": true,
		"runtime.bgsweep": true, "runtime.bgscavenge": true,
		"runtime.gcStart": true, "runtime.gcMarkDone": true,
		"runtime.gcMarkTermination": true, "runtime.sweepone": true,
	}
)

// cpuShares rolls a CPU profile up with the toolchain's pprof: each
// sample's leaf frame charges its package's self time, and a sample whose
// stack passes through a hand-off or GC function counts toward that share.
func cpuShares(path string) (profileShares, error) {
	out, err := exec.Command("go", "tool", "pprof", "-traces", path).Output()
	if err != nil {
		return profileShares{}, fmt.Errorf("go tool pprof -traces: %w", err)
	}
	return parseTraces(out)
}

// parseTraces reads `pprof -traces` output: blocks separated by dashed
// lines, each starting with the sample value and the leaf function,
// followed by one caller per line.
func parseTraces(out []byte) (profileShares, error) {
	s := profileShares{pkg: map[string]float64{}}
	var total, chanT, gcT float64
	var val float64
	var frames []string
	flush := func() {
		if len(frames) == 0 {
			return
		}
		total += val
		if pkg := layerOf(frames[0]); pkg != "" {
			s.pkg[pkg] += val
		}
		inChan, inGC := false, false
		for _, f := range frames {
			inChan = inChan || chanFuncs[f]
			inGC = inGC || gcFuncs[f]
		}
		if inChan {
			chanT += val
		}
		if inGC {
			gcT += val
		}
		frames = frames[:0]
	}
	sc := bufio.NewScanner(bytes.NewReader(out))
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "-----------+") {
			flush()
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 0 || strings.HasSuffix(fields[0], ":") {
			continue // header lines (File:, Type:, Time:, Duration: ...)
		}
		if len(frames) == 0 {
			// Value line: "<value><unit>   <leaf function>".
			v, err := parseDuration(fields[0])
			if err != nil || len(fields) < 2 {
				continue
			}
			val = v
			frames = append(frames, fields[1])
			continue
		}
		frames = append(frames, fields[0])
	}
	flush()
	if err := sc.Err(); err != nil {
		return s, err
	}
	if total == 0 {
		return s, fmt.Errorf("CPU profile has no samples")
	}
	for k, v := range s.pkg {
		s.pkg[k] = v / total
	}
	s.chanShare, s.gcShare = chanT/total, gcT/total
	return s, nil
}

func parseDuration(f string) (float64, error) {
	d, err := time.ParseDuration(f)
	return float64(d), err
}

// layerOf maps a function name to its m3v/internal layer ("sim" for
// m3v/internal/sim.(*Engine).Run), or "" outside m3v/internal.
func layerOf(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiation
	}
	const prefix = "m3v/internal/"
	if !strings.HasPrefix(fn, prefix) {
		return ""
	}
	rest := fn[len(prefix):]
	if i := strings.IndexByte(rest, '.'); i >= 0 {
		rest = rest[:i]
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i] // subpackages roll up into their layer
	}
	return rest
}

// --- isolated probes ----------------------------------------------------------

const (
	probeReps   = 5
	handoffRuns = 20000
)

// handoffProbe times the process hand-off in isolation: two processes on
// a bare engine waking each other with Wake/Park. It returns the median
// host ns and heap allocations per resumed process.
func handoffProbe() (ns, allocs float64) {
	var nss, als []float64
	for r := 0; r < probeReps; r++ {
		e := sim.NewEngine()
		var a, b *sim.Proc
		a = e.Spawn("ping", func(p *sim.Proc) {
			for i := 0; i < handoffRuns; i++ {
				b.Wake()
				p.Park()
			}
		})
		b = e.Spawn("pong", func(p *sim.Proc) {
			for i := 0; i < handoffRuns; i++ {
				p.Park()
				a.Wake()
			}
		})
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		e.Run()
		d := time.Since(t0)
		runtime.ReadMemStats(&m1)
		e.Shutdown()
		nss = append(nss, float64(d.Nanoseconds())/(2*handoffRuns))
		als = append(als, float64(m1.Mallocs-m0.Mallocs)/(2*handoffRuns))
	}
	return median(nss), median(als)
}

// bootProbe returns the median host ms of core.New plus Shutdown on cfg.
func bootProbe(cfg core.Config) float64 {
	var ms []float64
	for r := 0; r < probeReps; r++ {
		t0 := time.Now()
		core.New(cfg).Shutdown()
		ms = append(ms, float64(time.Since(t0).Microseconds())/1e3)
	}
	return median(ms)
}
