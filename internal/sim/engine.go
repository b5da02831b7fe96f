package sim

import (
	"fmt"
	"sync/atomic"

	"m3v/internal/trace"
)

// event is a scheduled callback. Events with equal timestamps execute in
// insertion order (seq), which makes the simulation fully deterministic.
//
// Events are stored by value: the queues never allocate per event, only when
// their backing arrays grow. This is the engine's hottest path — every DTU
// command, NoC packet, and context switch schedules at least one event.
type event struct {
	at  Time
	seq uint64
	fn  func()
}

//m3v:noalloc
func evLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// heapPush inserts an event into a 4-ary min-heap ordered by (at, seq).
// 4-ary beats binary here because sift-down does 3/4 fewer levels at slightly
// more comparisons per level, and the four children share a cache line (an
// event is 24 bytes).
//
//m3v:noalloc
func heapPush(hp *[]event, ev event) {
	//m3vlint:ignore noalloc backing array growth is amortized; steady state reuses capacity (see BenchmarkEngineSchedule alloc guard)
	h := append(*hp, ev)
	i := len(h) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !evLess(&h[i], &h[parent]) {
			break
		}
		h[i], h[parent] = h[parent], h[i]
		i = parent
	}
	*hp = h
}

// heapPop removes and returns the minimum heap event.
//
//m3v:noalloc
func heapPop(hp *[]event) event {
	h := *hp
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h[last] = event{} // release the closure for GC
	h = h[:last]
	*hp = h
	// Sift down in the 4-ary heap.
	i := 0
	for {
		first := 4*i + 1
		if first >= len(h) {
			break
		}
		min := first
		end := first + 4
		if end > len(h) {
			end = len(h)
		}
		for c := first + 1; c < end; c++ {
			if evLess(&h[c], &h[min]) {
				min = c
			}
		}
		if !evLess(&h[min], &h[i]) {
			break
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
	return top
}

// ringBuf is a circular FIFO for events scheduled at exactly the current
// time (After(0): process resumes, wakes, IRQ injection). These need no
// ordering structure at all — they run after every already-queued event with
// the same timestamp (which must have a smaller seq) and among themselves in
// insertion order, which the FIFO provides for free.
//
// The invariant making the ring sound: an event enters the ring only with
// at == now, and the clock only advances when the rest of the queue has
// nothing left at now, so every non-ring event with at == now was pushed
// before any current ring event and therefore has a smaller seq.
type ringBuf struct {
	buf  []event // circular buffer, len is a power of two
	head int     // read position
	n    int     // occupancy
}

// push appends an event scheduled at the current time. Growth lives in grow,
// which is deliberately left un-annotated: it is the amortized cold path.
//
//m3v:noalloc
func (r *ringBuf) push(ev event) {
	if r.n == len(r.buf) {
		//m3vlint:ignore noalloc amortized cold path: growth doubles capacity, steady state never enters this branch
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = ev
	r.n++
}

func (r *ringBuf) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 16
	}
	grown := make([]event, size)
	for i := 0; i < r.n; i++ {
		grown[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = grown
	r.head = 0
}

//m3v:noalloc
func (r *ringBuf) pop() event {
	ev := r.buf[r.head]
	r.buf[r.head] = event{} // release the closure for GC
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return ev
}

// pop status codes reported by popLimit.
const (
	popOK     = iota // an event at or before the limit was popped
	popEmpty         // the queue is empty
	popBeyond        // the next event lies beyond the limit
)

// heapQueue orders events by (at, seq) without per-event allocation: a 4-ary
// min-heap of value events plus the same-time ring. It is the original
// scheduler, kept behind -sched=heap as the differential-testing reference
// for the timing wheel (see wheel.go).
type heapQueue struct {
	heap []event
	ring ringBuf
}

//m3v:noalloc
func (q *heapQueue) len() int { return len(q.heap) + q.ring.n }

// schedule inserts an event with at >= now.
//
//m3v:noalloc
func (q *heapQueue) schedule(ev event, now Time) {
	if ev.at == now {
		q.ring.push(ev)
		return
	}
	heapPush(&q.heap, ev)
}

// popNext removes and returns the event with the smallest (at, seq).
//
//m3v:noalloc
func (q *heapQueue) popNext() (event, bool) {
	if q.ring.n == 0 {
		if len(q.heap) == 0 {
			return event{}, false
		}
		return heapPop(&q.heap), true
	}
	if len(q.heap) == 0 {
		return q.ring.pop(), true
	}
	// Both non-empty: full (at, seq) comparison. By the ring invariant the
	// heap wins ties on at, but comparing seq keeps this robust.
	if evLess(&q.heap[0], &q.ring.buf[q.ring.head]) {
		return heapPop(&q.heap), true
	}
	return q.ring.pop(), true
}

// popSeq pops and discards the minimum event iff it is exactly the event
// with the given seq and its timestamp is <= limit. This backs the Sleep
// self-resume fast path (see Proc.Sleep): the caller knows the event's fn
// is its own cached resume closure, so the event need not be returned.
//
//m3v:noalloc
func (q *heapQueue) popSeq(seq uint64, limit Time) (Time, bool) {
	var min *event
	if q.ring.n > 0 {
		min = &q.ring.buf[q.ring.head]
	}
	if len(q.heap) > 0 && (min == nil || evLess(&q.heap[0], min)) {
		min = &q.heap[0]
	}
	if min == nil || min.seq != seq || min.at > limit {
		return 0, false
	}
	at := min.at
	if len(q.heap) > 0 && min == &q.heap[0] {
		heapPop(&q.heap)
	} else {
		q.ring.pop()
	}
	return at, true
}

// popLimit pops the minimum event if its timestamp is <= limit.
//
//m3v:noalloc
func (q *heapQueue) popLimit(limit Time) (event, int) {
	var min *event
	if q.ring.n > 0 {
		min = &q.ring.buf[q.ring.head]
	}
	if len(q.heap) > 0 && (min == nil || evLess(&q.heap[0], min)) {
		min = &q.heap[0]
	}
	if min == nil {
		return event{}, popEmpty
	}
	if min.at > limit {
		return event{}, popBeyond
	}
	if len(q.heap) > 0 && min == &q.heap[0] {
		return heapPop(&q.heap), popOK
	}
	return q.ring.pop(), popOK
}

// SchedKind selects the engine's event-queue implementation.
type SchedKind uint8

// Scheduler kinds. SchedWheel is the hierarchical timing wheel tuned to the
// simulator's delay distribution (the default); SchedHeap is the original
// 4-ary min-heap, kept as an escape hatch and differential-testing reference.
const (
	SchedDefault SchedKind = iota // resolve to the process-wide default
	SchedWheel
	SchedHeap
)

// String reports the scheduler name as accepted by ParseSched.
func (k SchedKind) String() string {
	switch k {
	case SchedWheel:
		return "wheel"
	case SchedHeap:
		return "heap"
	default:
		return "default"
	}
}

// ParseSched parses a -sched flag value.
func ParseSched(s string) (SchedKind, error) {
	switch s {
	case "wheel":
		return SchedWheel, nil
	case "heap":
		return SchedHeap, nil
	default:
		return SchedDefault, fmt.Errorf("unknown scheduler %q (want wheel or heap)", s)
	}
}

// defaultSched is the process-wide scheduler default, read by every
// NewEngine call. Atomic because experiment sweeps build engines from worker
// goroutines while the default stays fixed; stored as int32 for the atomic.
var defaultSched atomic.Int32

// SetDefaultScheduler sets the scheduler used by engines constructed with
// NewEngine (or NewEngineSched(SchedDefault)). SchedDefault restores the
// built-in default (the timing wheel).
func SetDefaultScheduler(k SchedKind) { defaultSched.Store(int32(k)) }

// DefaultScheduler reports the current process-wide scheduler default.
func DefaultScheduler() SchedKind {
	if k := SchedKind(defaultSched.Load()); k != SchedDefault {
		return k
	}
	return SchedWheel
}

// totalExecuted counts events executed by every engine in the process. The
// bench harness reads it around experiments to report scheduler throughput
// (events_executed / events_per_sec in the m3vbench/v2 report); atomic
// because sweep points run engines on worker goroutines.
var totalExecuted atomic.Uint64

// TotalEventsExecuted reports the number of events executed across all
// engines of the process since start.
func TotalEventsExecuted() uint64 { return totalExecuted.Load() }

// Engine is a discrete-event simulation kernel. The zero value is not usable;
// construct with NewEngine.
//
// Model code runs in two contexts:
//
//   - handler context: event callbacks executed by the Run loop;
//   - process context: inside a coroutine started with Spawn, between the
//     engine's resume and the process's next blocking call.
//
// The engine guarantees that at most one of these is active at any moment.
type Engine struct {
	now      Time
	seq      uint64
	useWheel bool
	wq       wheelQueue
	hq       heapQueue
	dead     bool    // set by Shutdown; Spawn panics afterwards
	procs    []*Proc // spawned, not yet finished processes

	// stopped halts the active dispatch loop after the in-flight event.
	// Atomic: Stop and Cancel are the only engine entry points that may be
	// called from outside the simulation goroutine (server deadline and
	// client-disconnect handlers need exactly that), so the write must have
	// a happens-before edge to the loop's read.
	stopped atomic.Bool
	// cancelled is the sticky form of stopped: once set, enter() re-arms
	// stopped on every subsequent Run/RunUntil, so a cancelled engine stays
	// cancelled even if the cancel races the start of the next run.
	cancelled atomic.Bool
	running   bool
	limit     Time  // bound of the active dispatch loop (MaxTime for Run)
	inlined   int64 // events consumed by the Sleep fast path since last flush
	tracer    func(Time, string)

	rec    *trace.Recorder
	evExec *trace.Counter

	sampler     *trace.Sampler
	sampleEvery Time
	sampleFn    func() // cached recurring tick closure (scheduled without allocating)
}

// NewEngine returns a ready-to-use engine at time zero, using the
// process-wide default scheduler (see SetDefaultScheduler).
func NewEngine() *Engine { return NewEngineSched(SchedDefault) }

// NewEngineSched returns a ready-to-use engine at time zero with the given
// event scheduler. SchedDefault resolves to the process-wide default.
func NewEngineSched(kind SchedKind) *Engine {
	if kind == SchedDefault {
		kind = DefaultScheduler()
	}
	rec := trace.NewRecorder()
	e := &Engine{
		useWheel: kind == SchedWheel,
		rec:      rec,
		evExec:   rec.Metrics().Counter("sim.events_executed"),
	}
	if e.useWheel {
		e.wq.init()
	}
	return e
}

// Scheduler reports the engine's event-queue implementation.
func (e *Engine) Scheduler() SchedKind {
	if e.useWheel {
		return SchedWheel
	}
	return SchedHeap
}

// Now reports the current simulated time.
func (e *Engine) Now() Time { return e.now }

// Seq reports the number of events scheduled so far. It advances on every
// At/After call, which makes it a deterministic, replayable progress marker:
// fault schedules key their pseudo-random decisions off (seed, Seq) so the
// same seed always replays the same fault pattern.
//
//m3v:noalloc
func (e *Engine) Seq() uint64 { return e.seq }

// Tracer returns the engine's structured event recorder (never nil). All
// components built on this engine share it: the recorder's metrics registry
// is always live, while the event stream is off until Tracer().Enable().
func (e *Engine) Tracer() *trace.Recorder { return e.rec }

// SetTracer installs a debug tracer invoked for engine-level events. A nil
// tracer disables tracing.
func (e *Engine) SetTracer(fn func(Time, string)) { e.tracer = fn }

func (e *Engine) trace(format string, args ...interface{}) {
	if e.tracer != nil {
		e.tracer(e.now, fmt.Sprintf(format, args...))
	}
}

// At schedules fn to run at absolute time t. Scheduling in the past panics:
// it would violate causality. Steady-state scheduling is allocation-free:
// events are stored by value and the queues' arrays are reused across pops.
//
//m3v:noalloc
func (e *Engine) At(t Time, fn func()) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling event at %v before now (%v)", t, e.now))
	}
	e.seq++
	if e.useWheel {
		e.wq.schedule(event{at: t, seq: e.seq, fn: fn}, e.now)
		return
	}
	e.hq.schedule(event{at: t, seq: e.seq, fn: fn}, e.now)
}

// After schedules fn to run d after the current time.
//
//m3v:noalloc
func (e *Engine) After(d Time, fn func()) { e.At(e.now+d, fn) }

// Stop makes the Run loop return after the current event completes. Pending
// events remain queued; Run can be called again to continue. Safe to call
// from any goroutine: the flag is atomic, so an external caller (a deadline
// timer, a disconnect handler) synchronizes correctly with the dispatch
// loop. A Stop that lands while no loop is active is erased by the next
// Run/RunUntil; use Cancel for a stop that must survive that race.
func (e *Engine) Stop() { e.stopped.Store(true) }

// Cancel permanently stops the engine: the active dispatch loop (if any)
// returns after the in-flight event, and every subsequent Run/RunUntil
// returns immediately without dispatching. Pending events stay queued and
// spawned processes stay parked; Shutdown still unwinds them. Safe to call
// from any goroutine — this is the cancellation entry point for code outside
// the simulation (server deadlines, client disconnects).
func (e *Engine) Cancel() {
	e.cancelled.Store(true)
	e.stopped.Store(true)
}

// Cancelled reports whether Cancel has been called.
func (e *Engine) Cancelled() bool { return e.cancelled.Load() }

// Run executes events until the queue is empty or Stop is called. It returns
// the simulated time at which it stopped. Unlike RunUntil, the dispatch loop
// carries no bound check at all: with the limit pinned at MaxTime every
// queued event is eligible, so the per-event "next beyond limit?" test of the
// bounded loop is dead weight and is skipped.
//
//m3v:noalloc
//m3v:simctx
func (e *Engine) Run() Time {
	e.enter()
	defer e.leave()
	e.limit = MaxTime
	var executed int64
	if e.useWheel {
		for !e.stopped.Load() {
			ev, ok := e.wq.popNext()
			if !ok {
				break
			}
			e.now = ev.at
			executed++
			//m3vlint:ignore noalloc audited dispatch slot: event callbacks are cached closures checked at their schedule sites
			ev.fn()
		}
	} else {
		for !e.stopped.Load() {
			ev, ok := e.hq.popNext()
			if !ok {
				break
			}
			e.now = ev.at
			executed++
			//m3vlint:ignore noalloc audited dispatch slot: event callbacks are cached closures checked at their schedule sites
			ev.fn()
		}
	}
	e.flush(executed)
	return e.now
}

// RunUntil executes events with timestamps <= limit, then returns. The
// engine's clock advances to the timestamp of the last executed event (or to
// limit if at least one event beyond it remains queued). The clock never
// moves backwards: a limit below the current time (for example after a Stop
// mid-run) leaves it where the last executed event put it.
//
//m3v:noalloc
//m3v:simctx
func (e *Engine) RunUntil(limit Time) Time {
	if limit == MaxTime {
		// "Run to completion" calls land here; take the unbounded loop,
		// which skips the per-event bound check entirely.
		return e.Run()
	}
	e.enter()
	defer e.leave()
	e.limit = limit
	var executed int64
	if e.useWheel {
		for !e.stopped.Load() {
			ev, st := e.wq.popLimit(limit)
			if st != popOK {
				if st == popBeyond && limit > e.now {
					e.now = limit
				}
				break
			}
			e.now = ev.at
			executed++
			//m3vlint:ignore noalloc audited dispatch slot: event callbacks are cached closures checked at their schedule sites
			ev.fn()
		}
	} else {
		for !e.stopped.Load() {
			ev, st := e.hq.popLimit(limit)
			if st != popOK {
				if st == popBeyond && limit > e.now {
					e.now = limit
				}
				break
			}
			e.now = ev.at
			executed++
			//m3vlint:ignore noalloc audited dispatch slot: event callbacks are cached closures checked at their schedule sites
			ev.fn()
		}
	}
	e.flush(executed)
	return e.now
}

//m3v:noalloc
func (e *Engine) enter() {
	if e.running {
		panic("sim: Run called re-entrantly")
	}
	e.running = true
	// A fresh loop clears a one-shot Stop but honors a sticky Cancel, even
	// one that raced the start of this run.
	e.stopped.Store(e.cancelled.Load())
}

//m3v:noalloc
func (e *Engine) leave() { e.running = false }

// flush publishes the dispatch loop's event count: once into the engine's
// metrics registry and once into the process-wide throughput total. Batched
// at loop exit instead of per event so the hot loop touches no counters.
// Events consumed by the Sleep fast path (popSelf) are folded in here, so
// events_executed counts them exactly as if the loop had dispatched them.
//
//m3v:noalloc
func (e *Engine) flush(executed int64) {
	executed += e.inlined
	e.inlined = 0
	if executed != 0 {
		e.evExec.Add(executed)
		totalExecuted.Add(uint64(executed))
	}
}

// popSelf is the Sleep self-resume fast path. The calling process has just
// scheduled its own resume as event seq; if that event is the queue's next
// eligible event (true (at, seq) minimum, within the active loop's bound,
// and the loop was not stopped), consume it inline and advance the clock —
// the yield/resume coroutine switch through the engine is skipped
// entirely. This is exact, not an approximation: the resume event's only
// effect is to transfer control back to the sleeping process, which staying
// on its coroutine achieves identically, and dispatch order is untouched
// because only the true minimum is ever consumed. Both schedulers share the
// path, so heap/wheel differential runs stay bit-identical.
//
// Called from process context only: the engine is suspended in resume at
// this point, so mutating the queue and clock here is ordered by the
// coroutine switches.
//
//m3v:noalloc
func (e *Engine) popSelf(seq uint64) bool {
	if e.stopped.Load() {
		return false
	}
	var at Time
	var ok bool
	if e.useWheel {
		at, ok = e.wq.popSeq(seq, e.limit)
	} else {
		at, ok = e.hq.popSeq(seq, e.limit)
	}
	if !ok {
		return false
	}
	e.now = at
	e.inlined++
	return true
}

// StartSampling arms sim-time telemetry: a trace.Sampler over the engine's
// metrics registry, driven by a recurring event every `every` (first tick at
// now+every). Each tick runs the registry's probes, snapshots all gauges and
// counter deltas into ring-buffered series (capSamples per series, 0 for the
// default), and reschedules itself. The engine also registers its own probe
// publishing sim.procs_ready / sim.procs_parked / sim.events_pending /
// sim.wheel_slots, so scheduler pressure shows up in the timelines.
//
// When sampling is off nothing here runs — no event is scheduled and the
// engine gauges are never created, so an unsampled run pays nothing.
//
// The recurring tick keeps the queue non-empty: bound the run with RunUntil
// (or Stop), as Engine.Run would spin on sampler ticks forever. Sampling
// does not emit trace events or spans, but each tick consumes sequence
// numbers, which shifts seeded fault schedules (see fault injection); event
// streams of fault-free runs are unaffected.
//
// Calling StartSampling again returns the existing sampler unchanged.
func (e *Engine) StartSampling(every Time, capSamples int) *trace.Sampler {
	if every <= 0 {
		panic("sim: StartSampling interval must be positive")
	}
	if e.sampler != nil {
		return e.sampler
	}
	m := e.rec.Metrics()
	gReady := m.Gauge("sim.procs_ready")
	gParked := m.Gauge("sim.procs_parked")
	gPending := m.Gauge("sim.events_pending")
	gSlots := m.Gauge("sim.wheel_slots")
	m.AddProbe(func() {
		parked := 0
		for _, p := range e.procs {
			if p.parked {
				parked++
			}
		}
		gParked.Set(int64(parked))
		gReady.Set(int64(len(e.procs) - parked))
		gPending.Set(int64(e.Pending()))
		if e.useWheel {
			gSlots.Set(int64(e.wq.occupiedSlots()))
		}
	})
	s := trace.NewSampler(m, int64(every), capSamples)
	e.sampler = s
	e.rec.SetSampler(s)
	e.sampleEvery = every
	e.sampleFn = func() {
		if e.sampler == nil {
			return // StopSampling won over an already-queued tick
		}
		// Publish Sleep-fast-path events consumed since the last flush so the
		// events_executed series sees them; loop-dispatched events still batch
		// until the dispatch loop exits (deliberate — the hot loop touches no
		// counters).
		e.flush(0)
		e.sampler.Sample(int64(e.now))
		e.After(e.sampleEvery, e.sampleFn)
	}
	e.After(every, e.sampleFn)
	return s
}

// StopSampling disarms the sampler: an already-queued tick becomes a no-op
// and no further ticks are scheduled. The recorder's sampler reference is
// cleared too, so keep the *Sampler returned by StartSampling if the
// collected series are still wanted.
func (e *Engine) StopSampling() {
	e.sampler = nil
	e.rec.SetSampler(nil)
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int {
	if e.useWheel {
		return e.wq.len()
	}
	return e.hq.len()
}

// Live reports the number of spawned processes that have not finished.
func (e *Engine) Live() int { return len(e.procs) }

// Shutdown unwinds all parked processes: each live coroutine is stopped, its
// pending yield returns false, and the process panics with shutdownError,
// running its deferred calls before the Spawn body recovers. It must be
// called after Run has returned (never from handler or process context). The
// engine is dead afterwards; further use panics.
func (e *Engine) Shutdown() {
	if e.running {
		panic("sim: Shutdown during Run")
	}
	e.dead = true
	for _, p := range e.procs {
		p.stop()
	}
	e.procs = nil
}

// shutdownError is the sentinel used to unwind process coroutines at Shutdown.
type shutdownError struct{}

func (shutdownError) Error() string { return "sim: engine shut down" }
