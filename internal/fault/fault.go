// Package fault implements deterministic, seed-driven fault injection for
// the simulated platform. An Injector is attached to the NoC, the per-tile
// DTUs, and the TileMux instances; at well-defined decision points those
// components ask it whether to drop, delay, or duplicate a packet, fail a
// command, or stall a wakeup.
//
// Every decision is a pure function of (seed, decision class, the class's
// own decision counter): no wall clock, no global rand, and no engine
// state. Replaying the same seed against the same workload therefore
// reproduces the identical fault pattern — and, because the recovery
// machinery is itself deterministic, the identical trace hash. Because the
// schedule never reads the event queue, adding or removing an event that
// makes no fault query leaves every decision where it was; and because each
// class counts its own decisions, extra queries of one class leave the
// others' sequences untouched. The scenario harness in fault/scenarios
// asserts the replay property.
//
// All query methods are safe on a nil *Injector and return "no fault",
// so components thread an injector field unconditionally; a model with no
// injector configured behaves bit-for-bit like one built before this
// package existed (no counters registered, no spans emitted, no
// scheduling perturbed).
package fault

import (
	"m3v/internal/sim"
	"m3v/internal/trace"
)

// Decision classes. Each draws from its own pseudo-random stream.
const (
	classNoCDrop = iota
	classNoCDelay
	classNoCDup
	classCmdFail
	classMuxStall
	numClasses
)

// The fault model's fixed magnitudes.
const (
	// delayTime is the extra wire latency of a delayed delivery.
	delayTime = 500 * sim.Nanosecond
	// stallTime is how long a stalled wakeup poke is deferred.
	stallTime = 2 * sim.Microsecond
	// retryBase is the first retry backoff of a dropped packet or a failed
	// command; it doubles per attempt, capped at retryBase<<6.
	retryBase = 200 * sim.Nanosecond
	// retryMax bounds the retries a command wrapper attempts before giving
	// up and surfacing the error.
	retryMax = 12
)

// Config selects the fault schedule. The zero value disables injection.
type Config struct {
	// Seed keys the fault schedule. Two runs with equal seeds and equal
	// workloads observe identical fault patterns.
	Seed uint64
	// Rate is the injection probability in [0, 1] of every fault class:
	// NoC drops, delays and ghost duplicates, DTU command failures and
	// TileMux wakeup stalls.
	Rate float64
}

// Enabled reports whether the config injects faults.
func (c Config) Enabled() bool { return c.Rate > 0 }

// ValidRate reports whether rate is a probability in [0, 1]. NaN is not.
func ValidRate(rate float64) bool { return rate >= 0 && rate <= 1 }

// Injector answers fault-injection queries for one engine. It owns the
// graceful-degradation counters (fault.*) in the engine's metric registry
// and emits fault.* spans onto traced flows so injected events show up in
// flow critical-path reports.
type Injector struct {
	eng  *sim.Engine
	rec  *trace.Recorder
	rate float64

	// stream[c] is the SplitMix64 state of decision class c: seeded from
	// (seed, c) and advanced once per decision of that class only.
	stream [numClasses]uint64

	sends       *trace.Counter // fault.noc_sends: packets entering the NoC
	drops       *trace.Counter // fault.noc_drops: injected packet drops
	delays      *trace.Counter // fault.noc_delays: injected latency penalties
	dups        *trace.Counter // fault.noc_dups: injected ghost duplicates
	dupDiscards *trace.Counter // fault.noc_dup_discards: ghosts filtered at sink
	cmdFails    *trace.Counter // fault.cmd_fails: injected command failures
	cmdRetries  *trace.Counter // fault.cmd_retries: retries taken by wrappers
	cmdGiveups  *trace.Counter // fault.cmd_giveups: retry budgets exhausted
	stalls      *trace.Counter // fault.mux_stalls: deferred wakeup pokes
}

// New builds an injector for the engine. The fault.* counters register in
// the engine's metric registry here and only here: a run that never
// constructs an injector reports exactly the pre-fault metric set.
func New(eng *sim.Engine, cfg Config) *Injector {
	m := eng.Tracer().Metrics()
	in := &Injector{
		eng:         eng,
		rec:         eng.Tracer(),
		rate:        cfg.Rate,
		sends:       m.Counter("fault.noc_sends"),
		drops:       m.Counter("fault.noc_drops"),
		delays:      m.Counter("fault.noc_delays"),
		dups:        m.Counter("fault.noc_dups"),
		dupDiscards: m.Counter("fault.noc_dup_discards"),
		cmdFails:    m.Counter("fault.cmd_fails"),
		cmdRetries:  m.Counter("fault.cmd_retries"),
		cmdGiveups:  m.Counter("fault.cmd_giveups"),
		stalls:      m.Counter("fault.mux_stalls"),
	}
	for c := range in.stream {
		in.stream[c] = splitmix64(cfg.Seed ^ uint64(c+1)<<56)
	}
	return in
}

// Enabled reports whether the injector is armed. Nil-safe.
//
//m3v:noalloc
func (in *Injector) Enabled() bool { return in != nil }

// golden is the SplitMix64 increment (2^64 / phi, odd).
const golden = 0x9e3779b97f4a7c15

// splitmix64 is the SplitMix64 finalizer: a bijective avalanche over
// uint64, strong enough to decorrelate consecutive stream states.
//
//m3v:noalloc
func splitmix64(x uint64) uint64 {
	x += golden
	x = (x ^ x>>30) * 0xbf58476d1ce4e5b9
	x = (x ^ x>>27) * 0x94d049bb133111eb
	return x ^ x>>31
}

// roll draws the next decision of the class: true with probability rate.
// It advances that class's stream only.
//
//m3v:noalloc
func (in *Injector) roll(class int) bool {
	if in.rate <= 0 {
		return false
	}
	in.stream[class] += golden
	x := splitmix64(in.stream[class])
	return float64(x>>11)*(1.0/(1<<53)) < in.rate
}

// backoff is the exponential retry backoff for the given 0-based attempt,
// capped at retryBase<<6.
//
//m3v:noalloc
func backoff(attempt int) sim.Time {
	return retryBase << uint(min(attempt, 6))
}

// CountSend accounts one packet entering the NoC, for the conservation
// checks of the chaos harness (sends == delivered). Nil-safe.
//
//m3v:noalloc
func (in *Injector) CountSend() {
	if in == nil {
		return
	}
	in.sends.Inc()
}

// Drop decides whether to drop the current transmit attempt. On a drop it
// returns the retransmit backoff to apply and emits a fault.drop span over
// the backoff window. Nil-safe: returns (0, false) when unarmed.
func (in *Injector) Drop(flow uint64, tile, attempt int) (sim.Time, bool) {
	if in == nil || !in.roll(classNoCDrop) {
		return 0, false
	}
	in.drops.Inc()
	d := backoff(attempt)
	now := int64(in.eng.Now())
	in.rec.EmitSpan(flow, 0, trace.SpanFaultDrop, now, now+int64(d),
		tile, trace.CompFault, trace.PathNone, int64(attempt), 0)
	return d, true
}

// Delay decides whether to add extra wire latency to the current delivery
// and returns the penalty (0 when not injecting). Emits a fault.delay span
// over the penalty window. Nil-safe.
func (in *Injector) Delay(flow uint64, tile int) sim.Time {
	if in == nil || !in.roll(classNoCDelay) {
		return 0
	}
	in.delays.Inc()
	d := delayTime
	now := int64(in.eng.Now())
	in.rec.EmitSpan(flow, 0, trace.SpanFaultDelay, now, now+int64(d),
		tile, trace.CompFault, trace.PathNone, int64(d), 0)
	return d
}

// Dup decides whether to transmit a ghost duplicate of the current packet.
// The caller books the ghost through the normal contention path and
// discards it at the destination via DiscardGhost. Nil-safe.
func (in *Injector) Dup(flow uint64, tile int) bool {
	if in == nil || !in.roll(classNoCDup) {
		return false
	}
	in.dups.Inc()
	now := int64(in.eng.Now())
	in.rec.EmitSpan(flow, 0, trace.SpanFaultDup, now, now,
		tile, trace.CompFault, trace.PathNone, 0, 0)
	return true
}

// DiscardGhost accounts a duplicate filtered at the destination. Every
// injected duplicate is discarded exactly once (dups == dup_discards),
// which the conservation checks assert. Nil-safe.
//
//m3v:noalloc
func (in *Injector) DiscardGhost() {
	if in == nil {
		return
	}
	in.dupDiscards.Inc()
}

// FailCmd decides whether to fail the current DTU command with a transient
// error. kind is 0 for send, 1 for reply. Nil-safe.
func (in *Injector) FailCmd(flow uint64, tile, kind int) bool {
	if in == nil || !in.roll(classCmdFail) {
		return false
	}
	in.cmdFails.Inc()
	now := int64(in.eng.Now())
	in.rec.EmitSpan(flow, 0, trace.SpanFaultCmdFail, now, now,
		tile, trace.CompFault, trace.PathNone, int64(kind), 0)
	return true
}

// CmdRetry reports whether a command wrapper should retry a transient
// failure after the given 0-based attempt, and with what backoff. It
// accounts the retry (or the give-up when the budget is exhausted).
// Nil-safe: an unarmed injector never grants retries.
func (in *Injector) CmdRetry(attempt int) (sim.Time, bool) {
	if in == nil {
		return 0, false
	}
	if attempt >= retryMax {
		in.cmdGiveups.Inc()
		return 0, false
	}
	in.cmdRetries.Inc()
	return backoff(attempt), true
}

// EmitRetry records the backoff sleep a command wrapper took before
// reissuing, as a fault.retry span over [at, end]. Nil-safe.
func (in *Injector) EmitRetry(flow uint64, at, end int64, tile, attempt int) {
	if in == nil {
		return
	}
	in.rec.EmitSpan(flow, 0, trace.SpanFaultRetry, at, end,
		tile, trace.CompFault, trace.PathNone, int64(attempt), 0)
}

// Stall decides whether to defer a TileMux wakeup poke and returns the
// stall duration. Emits a fault.stall span over the deferral. Nil-safe.
func (in *Injector) Stall(flow uint64, tile int) (sim.Time, bool) {
	if in == nil || !in.roll(classMuxStall) {
		return 0, false
	}
	in.stalls.Inc()
	d := stallTime
	now := int64(in.eng.Now())
	in.rec.EmitSpan(flow, 0, trace.SpanFaultStall, now, now+int64(d),
		tile, trace.CompFault, trace.PathNone, int64(d), 0)
	return d, true
}

// Degradation counter accessors (all nil-safe, reading zero when unarmed).

// NoCSends reports packets that entered the NoC while armed.
func (in *Injector) NoCSends() int64 {
	if in == nil {
		return 0
	}
	return in.sends.Value()
}

// NoCDrops reports injected packet drops.
func (in *Injector) NoCDrops() int64 {
	if in == nil {
		return 0
	}
	return in.drops.Value()
}

// NoCDelays reports injected latency penalties.
func (in *Injector) NoCDelays() int64 {
	if in == nil {
		return 0
	}
	return in.delays.Value()
}

// NoCDups reports injected ghost duplicates.
func (in *Injector) NoCDups() int64 {
	if in == nil {
		return 0
	}
	return in.dups.Value()
}

// NoCDupDiscards reports ghosts filtered at their destination.
func (in *Injector) NoCDupDiscards() int64 {
	if in == nil {
		return 0
	}
	return in.dupDiscards.Value()
}

// CmdFails reports injected command failures.
func (in *Injector) CmdFails() int64 {
	if in == nil {
		return 0
	}
	return in.cmdFails.Value()
}

// CmdRetries reports retries taken by command wrappers.
func (in *Injector) CmdRetries() int64 {
	if in == nil {
		return 0
	}
	return in.cmdRetries.Value()
}

// CmdGiveups reports retry budgets exhausted.
func (in *Injector) CmdGiveups() int64 {
	if in == nil {
		return 0
	}
	return in.cmdGiveups.Value()
}

// MuxStalls reports deferred wakeup pokes.
func (in *Injector) MuxStalls() int64 {
	if in == nil {
		return 0
	}
	return in.stalls.Value()
}
