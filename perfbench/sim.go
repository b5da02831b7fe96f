package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"m3v/internal/bench"
	"m3v/internal/core"
	"m3v/internal/sim"
	"m3v/internal/trace"
	"m3v/internal/traces"
)

// The paper's Figure 9 values at one worker tile (runs/s, §6.4).
var paperRunsPerSec = map[bool]map[string]float64{
	false: {"find": 84, "sqlite": 111},
	true:  {"find": 45, "sqlite": 49},
}

// setupReps is how often a run repeats its set-up; setup_s is the median.
const setupReps = 9

// simPoints builds a sim workload's points from the seed: the paper's find
// and SQLite traces at one worker tile, then seeded find- and SQLite-shaped
// traces (one per player) at the workload's larger tile counts.
func simPoints(m3x bool, seed uint64) []*point {
	sys := "m3v"
	big := []int{4, 12}
	if m3x {
		sys = "m3x"
		big = []int{4}
	}
	pts := []*point{
		{label: sys + " paper find 1", m3x: m3x, tiles: 1, paperTrace: traces.Find,
			traces: []*traces.Trace{traces.Find()}, paper: paperRunsPerSec[m3x]["find"]},
		{label: sys + " paper sqlite 1", m3x: m3x, tiles: 1, paperTrace: traces.SQLite,
			traces: []*traces.Trace{traces.SQLite()}, paper: paperRunsPerSec[m3x]["sqlite"]},
	}
	for _, n := range big {
		for si, sh := range []shape{shapeFind, shapeSQLite} {
			p := &point{label: fmt.Sprintf("%s seeded %s %d", sys, sh, n), m3x: m3x, tiles: n}
			for i := 0; i < n; i++ {
				p.traces = append(p.traces, sh.gen(mix(seed, uint64(n<<8|si<<4|i))))
			}
			pts = append(pts, p)
		}
	}
	return pts
}

// setupSim generates the seeded inputs and boots one system per platform
// config (then shuts it down), setupReps times; it returns the last inputs
// and the median set-up time.
func setupSim(m3x bool, seed uint64) ([]*point, float64) {
	var pts []*point
	var ts []float64
	for r := 0; r < setupReps; r++ {
		t0 := time.Now()
		pts = simPoints(m3x, seed)
		booted := map[int]bool{}
		for _, p := range pts {
			if !booted[p.tiles] {
				booted[p.tiles] = true
				core.New(p.config()).Shutdown()
			}
		}
		ts = append(ts, time.Since(t0).Seconds())
	}
	return pts, median(ts)
}

// pass is the outcome of running every point once.
type pass struct {
	results  []pointResult
	failed   int
	digest   uint64
	counts   counts
	fsOps    int64
	callSim  []int64
	paperErr float64
}

// runPass runs every point serially. A failing point is reported on
// standard error and counted; the pass goes on.
func runPass(pts []*point, spans *spanLog) pass {
	var ps pass
	h := fnv.New64a()
	var nPaper int
	for _, p := range pts {
		res, err := runPoint(p, spans)
		if spans != nil {
			trace.ClearRegistered()
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: point failed:", err)
			ps.failed++
		}
		ps.results = append(ps.results, res)
		fmt.Fprintf(h, "%s|%x|%d|%d|%v;", p.label, math.Float64bits(res.runsPerSec),
			res.simEnd, res.fsOps, res.counts.fields())
		ps.counts.add(res.counts)
		ps.fsOps += res.fsOps
		ps.callSim = append(ps.callSim, res.callSimPs...)
		if p.paper > 0 {
			ps.paperErr += math.Abs(res.runsPerSec-p.paper) / p.paper * 100
			nPaper++
		}
	}
	if nPaper > 0 {
		ps.paperErr /= float64(nPaper)
	}
	ps.digest = h.Sum64()
	return ps
}

// tally adds passes to the report. Each pass attempts every point; a
// failed point fails, and a pass whose simulated output (digest) differs
// from want fails whole.
func tally(rep *report, passes []pass, want uint64) {
	for _, ps := range passes {
		rep.Attempted += len(ps.results)
		rep.Failed += ps.failed
		if ps.digest != want {
			fmt.Fprintf(os.Stderr, "perfbench: pass digest %016x differs from %016x\n", ps.digest, want)
			rep.Failed += len(ps.results) - ps.failed
		}
	}
}

// runSim runs the m3v_tilemux (m3x false) or m3x_controller workload.
func runSim(o opts, m3x bool) (*report, error) {
	pts, setupS := setupSim(m3x, o.seed)
	fmt.Printf("workload %s seed %d: %d points per pass\n", o.workload, o.seed, len(pts))
	for _, p := range pts {
		fmt.Printf("  %-24s %2d worker tiles, %d traces\n", p.label, p.tiles, len(p.traces))
	}
	rep := &report{Metrics: map[string]metric{}}
	budget := time.Duration(o.seconds * float64(time.Second))

	// Untraced passes: the end-to-end measurement.
	var passes []pass
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	ev0 := sim.TotalEventsExecuted()
	walls, err := timesUntil(budget, func() error {
		passes = append(passes, runPass(pts, nil))
		return nil
	})
	if err != nil {
		return nil, err
	}
	ev1 := sim.TotalEventsExecuted()
	runtime.ReadMemStats(&after)
	first := passes[0]
	tally(rep, passes, first.digest)
	for i, p := range pts {
		fmt.Printf("  %-24s %10.4f runs/s\n", p.label, first.results[i].runsPerSec)
	}
	fmt.Printf("sim_digest %016x (%d passes of %d events, %d file-system calls)\n",
		first.digest, len(passes), first.counts.events, first.fsOps)
	fmt.Printf("pass wall times (s): %.3f\n", seconds(walls))
	wallS := median(seconds(walls))

	if !o.traced {
		rss, err := peakRSSMB()
		if err != nil {
			return nil, err
		}
		events := float64(ev1 - ev0)
		if events == 0 {
			return nil, fmt.Errorf("no simulated events in the timed part")
		}
		rep.Metrics["wall_s"] = metric{wallS, "s"}
		rep.Metrics["setup_s"] = metric{setupS, "s"}
		rep.Metrics["alloc_bytes_per_event"] = metric{float64(after.TotalAlloc-before.TotalAlloc) / events, "B"}
		rep.Metrics["peak_rss_mb"] = metric{rss, "MB"}
		rep.Metrics["paper_err_pct"] = metric{first.paperErr, "%"}
		rep.Correct = rep.Failed == 0
		return rep, nil
	}

	// Traced passes: event streams on, spans from the driver, CPU profile.
	trace.SetAutoRegister(true, true)
	spans := newSpanLog()
	base := fmt.Sprintf("%s-seed%d", o.workload, o.seed)
	prof, err := startProfile(filepath.Join(o.outDir, base+".pprof"))
	if err != nil {
		return nil, err
	}
	var traced []pass
	tracedWalls, err := timesUntil(budget/2, func() error {
		traced = append(traced, runPass(pts, spans))
		return nil
	})
	pprof.StopCPUProfile()
	trace.SetAutoRegister(false, false)
	if cerr := prof.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	tally(rep, traced, first.digest)
	if err := spans.write(filepath.Join(o.outDir, base+".spans.json")); err != nil {
		return nil, err
	}

	// Fig9Point pin: the driver's paper-trace runs/s must equal the
	// experiment driver's exactly.
	for i, p := range pts {
		if p.paperTrace == nil {
			continue
		}
		rep.Attempted++
		if want := bench.Fig9Point(p.m3x, p.tiles, p.paperTrace); want != first.results[i].runsPerSec {
			fmt.Fprintf(os.Stderr, "perfbench: %s: driver %v runs/s, bench.Fig9Point %v\n",
				p.label, first.results[i].runsPerSec, want)
			rep.Failed++
		}
	}

	shares, err := cpuShares(prof.Name())
	if err != nil {
		return nil, err
	}
	handoffNs, handoffAllocs := handoffProbe()
	bootMs := bootProbe(pts[len(pts)-1].config())
	c, tc := first.counts, traced[0].counts
	perCallHost := medianInt64(spans.durations(func(s *span) bool { return strings.HasPrefix(s.Name, "traces.") }))
	m := layerMetrics{
		"sim.events":           float64(c.events),
		"sim.ns_per_event":     wallS * 1e9 / float64(c.events),
		"sim.handoff_ns":       handoffNs,
		"sim.handoff_allocs":   handoffAllocs,
		"tilemux.ctx_switches": float64(c.ctxSwitches),
		"tilemux.irqs":         float64(c.irqs),
		"dtu.sends":            float64(c.dtuSends),
		"dtu.fetches":          float64(c.dtuFetches),
		"dtu.core_reqs":        float64(c.coreReqs),
		"noc.packets":          float64(c.nocPackets),
		"noc.bytes":            float64(c.nocBytes),
		"kernel.syscalls":      float64(c.syscalls),
		"m3x.forwards":         float64(tc.forwards),
		"m3x.remote_switches":  float64(tc.remoteSw),
		"m3fs.ops":             float64(first.fsOps),
		"m3fs.call_sim_ns":     float64(medianInt64(first.callSim)) / 1e3,
		"m3fs.call_host_us":    float64(perCallHost) / 1e3,
		"trace.overhead_frac":  median(seconds(tracedWalls))/wallS - 1,
		"core.boot_ms":         bootMs,
		"fault.retries":        float64(c.faultRetry),
	}
	m.addShares(shares)
	m.fill(rep)
	rep.Correct = rep.Failed == 0
	return rep, nil
}
