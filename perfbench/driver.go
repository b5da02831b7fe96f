package main

import (
	"errors"
	"fmt"
	"io"
	"sort"
	"strings"

	"m3v/internal/activity"
	"m3v/internal/core"
	"m3v/internal/m3fs"
	"m3v/internal/sim"
	"m3v/internal/trace"
	"m3v/internal/traces"
)

// The benchmark's fig9-shaped driver. It builds the experiment of the
// paper's Figure 9 from the platform's public API alone, the way the
// examples do: one traceplayer per worker tile, each with its own m3fs
// instance on the same tile. Unlike bench.Fig9Point it returns errors
// instead of panicking, lets the traced run time boot, run and shutdown
// separately, and counts the file-system calls each player makes. On the
// paper traces it must return exactly bench.Fig9Point's runs/s (pinned by
// a test).
const (
	warmupRuns = 1 // untimed replays of the run phase, as in the paper
	timedRuns  = 2 // timed replays per player
	diskBytes  = 8 << 20
	simLimit   = 3600 * sim.Second
)

// point is one simulation: a system, a worker tile count and one trace per
// player.
type point struct {
	label  string
	m3x    bool
	tiles  int
	traces []*traces.Trace
	// paperTrace builds the paper trace a 1-tile point replays (nil for
	// seeded points); paper is the paper's runs/s for it.
	paperTrace func() *traces.Trace
	paper      float64
}

// config returns the platform the point runs on: the gem5 setup with one
// extra tile for the orchestrating root activity.
func (p *point) config() core.Config {
	cfg := core.Gem5Config(p.tiles + 1)
	if p.m3x {
		cfg = cfg.WithM3x()
	}
	return cfg
}

// counts are the deterministic per-layer counts of one point, read from
// the system's metrics registry after the run.
type counts struct {
	events      int64
	ctxSwitches int64
	irqs        int64
	dtuSends    int64
	dtuFetches  int64
	coreReqs    int64
	nocPackets  int64
	nocBytes    int64
	syscalls    int64
	faultRetry  int64
	forwards    int64 // kernel.forward spans (event stream only)
	remoteSw    int64 // kernel.remote_switch spans (event stream only)
}

func (c *counts) add(o counts) {
	c.events += o.events
	c.ctxSwitches += o.ctxSwitches
	c.irqs += o.irqs
	c.dtuSends += o.dtuSends
	c.dtuFetches += o.dtuFetches
	c.coreReqs += o.coreReqs
	c.nocPackets += o.nocPackets
	c.nocBytes += o.nocBytes
	c.syscalls += o.syscalls
	c.faultRetry += o.faultRetry
	c.forwards += o.forwards
	c.remoteSw += o.remoteSw
}

// fields lists the counts in a fixed order for digests. The span counts
// are left out: they exist only when the event stream is on.
func (c *counts) fields() []int64 {
	return []int64{c.events, c.ctxSwitches, c.irqs, c.dtuSends, c.dtuFetches,
		c.coreReqs, c.nocPackets, c.nocBytes, c.syscalls, c.faultRetry}
}

// readCounts folds a recorder's registry into counts. Per-tile counters
// (tileNN.mux.*, tileNN.dtu.*) are summed over tiles.
func readCounts(rec *trace.Recorder) counts {
	var c counts
	for name, v := range rec.Metrics().Snapshot() {
		switch {
		case name == "sim.events_executed":
			c.events += v
		case strings.HasSuffix(name, ".mux.ctx_switches"):
			c.ctxSwitches += v
		case strings.HasSuffix(name, ".mux.irqs"):
			c.irqs += v
		case strings.HasSuffix(name, ".dtu.sends"):
			c.dtuSends += v
		case strings.HasSuffix(name, ".dtu.fetches"):
			c.dtuFetches += v
		case strings.HasSuffix(name, ".dtu.core_reqs_raised"):
			c.coreReqs += v
		case name == "noc.delivered":
			c.nocPackets += v
		case name == "noc.bytes":
			c.nocBytes += v
		case name == "kernel.syscalls":
			c.syscalls += v
		case name == "fault.cmd_retries", name == "fault.noc_drops":
			c.faultRetry += v
		}
	}
	c.forwards = rec.CountSpans(trace.SpanKernForward)
	c.remoteSw = rec.CountSpans(trace.SpanKernSwitch)
	return c
}

// pointResult is what one simulation produced.
type pointResult struct {
	runsPerSec float64
	simEnd     sim.Time
	counts     counts
	fsOps      int64
	callSimPs  []int64 // simulated time per file-system call (1-tile points)
}

// player is one traceplayer's outcome.
type player struct {
	start, end sim.Time
	runs       int
	done       bool
	err        error
	tgt        *target
}

// runPoint runs one point. spans is nil in untraced runs; when set, the
// driver records a span around each call it makes into core and, at one
// worker tile, around each traces.Target call.
func runPoint(p *point, spans *spanLog) (res pointResult, err error) {
	parent := spans.begin("point", 0, p.label)
	defer spans.end(parent)

	sp := spans.begin("core.New", parent, "")
	sys := core.New(p.config())
	spans.end(sp)
	defer func() {
		sp := spans.begin("System.Shutdown", parent, "")
		sys.Shutdown()
		spans.end(sp)
	}()

	procs := sys.Cfg.ProcessingTiles()
	if len(procs) < p.tiles+1 || len(p.traces) != p.tiles {
		return res, fmt.Errorf("%s: %d processing tiles and %d traces for %d workers",
			p.label, len(procs), len(p.traces), p.tiles)
	}
	workers := procs[1 : p.tiles+1]
	players := make([]*player, p.tiles)
	var rootErr error
	runSpan := spans.begin("System.Run", parent, "")
	sys.SpawnRoot(procs[0], "fig9-root", nil, func(a *activity.Activity) {
		tiles := core.TileSels(a)
		var refs []activity.ChildRef
		for i, tile := range workers {
			service := fmt.Sprintf("m3fs%d", i)
			if _, err := m3fs.SpawnNamed(a, tiles[tile], tile, service, diskBytes); err != nil {
				rootErr = err
				return
			}
			pl := &player{}
			players[i] = pl
			var callSpans *spanLog
			if p.tiles == 1 {
				callSpans = spans
			}
			tr := p.traces[i]
			ref, err := a.Spawn(tiles[tile], tile, fmt.Sprintf("player%d", i), nil,
				func(a *activity.Activity) { playTrace(a, service, tr, pl, p.tiles == 1, callSpans, runSpan) })
			if err != nil {
				rootErr = err
				return
			}
			refs = append(refs, ref)
		}
		for _, ref := range refs {
			if _, err := a.SysWait(ref.ActSel); err != nil {
				rootErr = err
				return
			}
		}
	})
	res.simEnd = sys.Run(simLimit)
	spans.end(runSpan)

	if rootErr != nil {
		return res, fmt.Errorf("%s: root: %w", p.label, rootErr)
	}
	var minStart, maxEnd sim.Time
	total := 0
	for i, pl := range players {
		switch {
		case pl == nil:
			return res, fmt.Errorf("%s: player %d never started", p.label, i)
		case pl.err != nil:
			return res, fmt.Errorf("%s: player %d: %w", p.label, i, pl.err)
		case !pl.done || pl.runs != timedRuns:
			return res, fmt.Errorf("%s: player %d unfinished after %d runs", p.label, i, pl.runs)
		}
		if i == 0 || pl.start < minStart {
			minStart = pl.start
		}
		if pl.end > maxEnd {
			maxEnd = pl.end
		}
		total += pl.runs
		res.fsOps += pl.tgt.ops
		res.callSimPs = append(res.callSimPs, pl.tgt.callPs...)
	}
	if elapsed := maxEnd - minStart; elapsed > 0 {
		res.runsPerSec = float64(total) / elapsed.Seconds()
	}
	if res.runsPerSec <= 0 {
		return res, fmt.Errorf("%s: %v runs/s", p.label, res.runsPerSec)
	}
	res.counts = readCounts(sys.Tracer())
	return res, nil
}

// playTrace is the traceplayer program: set up the file tree, warm up,
// then time the run phase.
func playTrace(a *activity.Activity, service string, tr *traces.Trace, pl *player, timeCalls bool, spans *spanLog, parent int) {
	c, err := m3fs.NewClientNamed(a, service)
	if err != nil {
		pl.err = err
		return
	}
	pl.tgt = &target{a: a, c: c, buf: make([]byte, 8192), timeCalls: timeCalls, spans: spans, parent: parent}
	if err := traces.Replay(tr.Setup, pl.tgt); err != nil {
		pl.err = err
		return
	}
	for i := 0; i < warmupRuns; i++ {
		if err := traces.Replay(tr.Run, pl.tgt); err != nil {
			pl.err = err
			return
		}
	}
	pl.start = a.Now()
	for i := 0; i < timedRuns; i++ {
		if err := traces.Replay(tr.Run, pl.tgt); err != nil {
			pl.err = err
			return
		}
		pl.runs++
	}
	pl.end = a.Now()
	pl.done = true
}

// target replays traces against an m3fs client and counts its calls.
type target struct {
	a   *activity.Activity
	c   *m3fs.Client
	f   *m3fs.File
	buf []byte
	ops int64
	// callPs collects the simulated time of each call when timeCalls is
	// set (1-tile points); spans, when set, gets a host-time span per call.
	timeCalls bool
	callPs    []int64
	spans     *spanLog
	parent    int
}

// enter and leave bracket one file-system call: they count it, capture
// its simulated time when timeCalls is set and, in traced runs, record a
// host-time span around it.
func (t *target) enter(op string) (span int, at sim.Time) {
	t.ops++
	return t.spans.begin(op, t.parent, ""), t.a.Now()
}

func (t *target) leave(span int, at sim.Time) {
	if t.timeCalls {
		t.callPs = append(t.callPs, int64(t.a.Now()-at))
	}
	t.spans.end(span)
}

func (t *target) Open(path string) error {
	defer t.leave(t.enter("traces.open"))
	f, err := t.c.Open(path, m3fs.FlagR|m3fs.FlagW)
	if err != nil {
		return err
	}
	t.f = f
	return nil
}

func (t *target) Create(path string) error {
	defer t.leave(t.enter("traces.create"))
	f, err := t.c.Open(path, m3fs.FlagR|m3fs.FlagW|m3fs.FlagCreate|m3fs.FlagTrunc)
	if err != nil {
		return err
	}
	t.f = f
	return nil
}

func (t *target) Read(size int) error {
	defer t.leave(t.enter("traces.read"))
	if t.f == nil {
		return errors.New("read without an open file")
	}
	_, err := t.f.Read(t.buf[:size])
	if err == io.EOF {
		return nil
	}
	return err
}

func (t *target) Write(size int) error {
	defer t.leave(t.enter("traces.write"))
	if t.f == nil {
		return errors.New("write without an open file")
	}
	_, err := t.f.Write(t.buf[:size])
	return err
}

func (t *target) Close() error {
	defer t.leave(t.enter("traces.close"))
	if t.f == nil {
		return nil
	}
	err := t.f.Close()
	t.f = nil
	return err
}

func (t *target) Stat(path string) error {
	defer t.leave(t.enter("traces.stat"))
	_, _, err := t.c.Stat(path)
	return err
}

func (t *target) ReadDir(path string) error {
	defer t.leave(t.enter("traces.readdir"))
	_, err := t.c.ReadDir(path)
	return err
}

func (t *target) Unlink(path string) error {
	defer t.leave(t.enter("traces.unlink"))
	return t.c.Unlink(path)
}

func (t *target) Mkdir(path string) error {
	defer t.leave(t.enter("traces.mkdir"))
	return t.c.Mkdir(path)
}

func (t *target) Compute(cycles int64) { t.a.Compute(cycles) }

// medianInt64 returns the median of xs (0 for none); xs is sorted in place.
func medianInt64(xs []int64) int64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Slice(xs, func(i, j int) bool { return xs[i] < xs[j] })
	return xs[len(xs)/2]
}
