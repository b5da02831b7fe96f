package fault

import (
	"math"
	"slices"
	"testing"

	"m3v/internal/sim"
	"m3v/internal/trace"
)

func TestNilInjectorIsInert(t *testing.T) {
	var in *Injector
	if in.Enabled() {
		t.Fatal("nil injector reports enabled")
	}
	if d, ok := in.Drop(1, 0, 0); ok || d != 0 {
		t.Fatal("nil injector drops")
	}
	if d := in.Delay(1, 0); d != 0 {
		t.Fatal("nil injector delays")
	}
	if in.Dup(1, 0) {
		t.Fatal("nil injector duplicates")
	}
	if in.FailCmd(1, 0, 0) {
		t.Fatal("nil injector fails commands")
	}
	if d, ok := in.CmdRetry(0); ok || d != 0 {
		t.Fatal("nil injector grants retries")
	}
	if d, ok := in.Stall(1, 0); ok || d != 0 {
		t.Fatal("nil injector stalls")
	}
	in.CountSend()
	in.DiscardGhost()
	in.EmitRetry(1, 0, 0, 0, 0)
	if in.NoCSends() != 0 || in.NoCDrops() != 0 || in.CmdRetries() != 0 {
		t.Fatal("nil injector counts")
	}
}

func TestZeroRateNeverFires(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, Config{Seed: 7})
	start := in.stream
	for i := 0; i < 10000; i++ {
		if _, ok := in.Drop(1, 0, 0); ok {
			t.Fatal("rate-0 drop fired")
		}
		if in.Delay(1, 0) != 0 || in.Dup(1, 0) || in.FailCmd(1, 0, 0) {
			t.Fatal("rate-0 class fired")
		}
		if _, ok := in.Stall(1, 0); ok {
			t.Fatal("rate-0 stall fired")
		}
	}
	if in.stream != start {
		t.Fatal("rate-0 rolls advanced a decision stream")
	}
}

func TestRateOneAlwaysFires(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, Config{Seed: 3, Rate: 1})
	for i := 0; i < 100; i++ {
		if _, ok := in.Drop(1, 0, 0); !ok {
			t.Fatal("rate-1 drop missed")
		}
		if in.Delay(1, 0) == 0 {
			t.Fatal("rate-1 delay missed")
		}
		if !in.Dup(1, 0) || !in.FailCmd(1, 0, 0) {
			t.Fatal("rate-1 class missed")
		}
		if _, ok := in.Stall(1, 0); !ok {
			t.Fatal("rate-1 stall missed")
		}
	}
}

// classQueries asks each decision class its question through the public
// query method, indexed by class.
var classQueries = [numClasses]func(in *Injector) bool{
	classNoCDrop:  func(in *Injector) bool { _, ok := in.Drop(1, 0, 0); return ok },
	classNoCDelay: func(in *Injector) bool { return in.Delay(1, 0) != 0 },
	classNoCDup:   func(in *Injector) bool { return in.Dup(1, 0) },
	classCmdFail:  func(in *Injector) bool { return in.FailCmd(1, 0, 0) },
	classMuxStall: func(in *Injector) bool { _, ok := in.Stall(1, 0); return ok },
}

// rollStream draws n decisions of one class and returns the outcomes.
func rollStream(seed uint64, rate float64, class, n int) []bool {
	in := New(sim.NewEngine(), Config{Seed: seed, Rate: rate})
	out := make([]bool, n)
	for i := range out {
		out[i] = classQueries[class](in)
	}
	return out
}

func TestRollDeterminism(t *testing.T) {
	a := rollStream(42, 0.1, classNoCDrop, 5000)
	b := rollStream(42, 0.1, classNoCDrop, 5000)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("decision %d differs across identical runs", i)
		}
	}
	c := rollStream(43, 0.1, classNoCDrop, 5000)
	same := true
	for i := range a {
		if a[i] != c[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical decision streams")
	}
}

// TestRollRateRoughlyHonored checks each class's empirical injection rate
// against the configured one.
func TestRollRateRoughlyHonored(t *testing.T) {
	for class := range classQueries {
		for _, rate := range []float64{0.01, 0.05, 0.10, 0.5} {
			n := 20000
			hits := 0
			for _, f := range rollStream(99, rate, class, n) {
				if f {
					hits++
				}
			}
			got := float64(hits) / float64(n)
			if got < rate*0.7 || got > rate*1.3 {
				t.Errorf("class %d rate %.2f: observed %.4f, outside ±30%%", class, rate, got)
			}
		}
	}
}

// TestClassStreamsIndependent: a decision depends only on the seed, its
// class and how many decisions of that class came before. Consuming extra
// decisions of one class leaves every other class's sequence unchanged,
// and two classes of one seed do not answer in lockstep.
func TestClassStreamsIndependent(t *testing.T) {
	const n = 2000
	for class := range classQueries {
		want := rollStream(5, 0.3, class, n)
		for other := range classQueries {
			if other == class {
				continue
			}
			in := New(sim.NewEngine(), Config{Seed: 5, Rate: 0.3})
			for i := 0; i < n; i++ {
				for k := 0; k <= i%3; k++ {
					classQueries[other](in)
				}
				if got := classQueries[class](in); got != want[i] {
					t.Fatalf("class %d decision %d changed after extra class-%d decisions", class, i, other)
				}
			}
			if slices.Equal(want, rollStream(5, 0.3, other, n)) {
				t.Errorf("classes %d and %d share one decision sequence", class, other)
			}
		}
	}
}

func TestBackoffDoublesAndCaps(t *testing.T) {
	eng := sim.NewEngine()
	in := New(eng, Config{Seed: 1, Rate: 0.5})
	base := 200 * sim.Nanosecond
	for attempt := 0; attempt < 10; attempt++ {
		d, ok := in.CmdRetry(attempt)
		if !ok {
			t.Fatalf("attempt %d: retry denied before RetryMax", attempt)
		}
		want := base << uint(min(attempt, 6))
		if d != want {
			t.Fatalf("attempt %d: backoff %v, want %v", attempt, d, want)
		}
	}
	if _, ok := in.CmdRetry(12); ok {
		t.Fatal("retry granted past RetryMax")
	}
	if in.CmdRetries() != 10 || in.CmdGiveups() != 1 {
		t.Fatalf("retry counters = %d/%d, want 10/1", in.CmdRetries(), in.CmdGiveups())
	}
}

func TestCountersAndSpans(t *testing.T) {
	eng := sim.NewEngine()
	eng.Tracer().Enable()
	in := New(eng, Config{Seed: 11, Rate: 1})
	in.CountSend()
	in.Drop(1, 2, 0)
	in.Delay(1, 2)
	in.Dup(1, 2)
	in.DiscardGhost()
	in.FailCmd(1, 2, 1)
	in.EmitRetry(1, 0, 100, 2, 0)
	in.Stall(1, 2)

	if in.NoCSends() != 1 || in.NoCDrops() != 1 || in.NoCDelays() != 1 ||
		in.NoCDups() != 1 || in.NoCDupDiscards() != 1 ||
		in.CmdFails() != 1 || in.MuxStalls() != 1 {
		t.Fatal("counter values wrong after one fault of each class")
	}
	rec := eng.Tracer()
	for _, n := range []trace.SpanName{
		trace.SpanFaultDrop, trace.SpanFaultDelay, trace.SpanFaultDup,
		trace.SpanFaultCmdFail, trace.SpanFaultRetry, trace.SpanFaultStall,
	} {
		if rec.CountSpans(n) != 1 {
			t.Errorf("span %v count = %d, want 1", n, rec.CountSpans(n))
		}
	}
}

func TestUntracedFlowEmitsNoSpans(t *testing.T) {
	eng := sim.NewEngine()
	eng.Tracer().Enable()
	in := New(eng, Config{Seed: 11, Rate: 1})
	in.Drop(0, 0, 0)
	in.Delay(0, 0)
	in.Stall(0, 0)
	if n := len(eng.Tracer().Spans()); n != 0 {
		t.Fatalf("flow-0 faults recorded %d spans, want 0", n)
	}
	if in.NoCDrops() != 1 || in.NoCDelays() != 1 || in.MuxStalls() != 1 {
		t.Fatal("flow-0 faults must still count")
	}
}

// TestConfigEnabledAndDefaults: only the rate arms injection, and the
// fault magnitudes are the fixed model constants.
func TestConfigEnabledAndDefaults(t *testing.T) {
	if (Config{}).Enabled() || (Config{Seed: 9}).Enabled() {
		t.Fatal("rate-0 config enabled")
	}
	if !(Config{Rate: 0.01}).Enabled() {
		t.Fatal("nonzero-rate config disabled")
	}
	if delayTime != 500*sim.Nanosecond || stallTime != 2*sim.Microsecond ||
		retryBase != 200*sim.Nanosecond || retryMax != 12 {
		t.Fatal("fault magnitudes changed")
	}
	for _, r := range []float64{0, 0.5, 1} {
		if !ValidRate(r) {
			t.Errorf("ValidRate(%g) = false", r)
		}
	}
	for _, r := range []float64{-0.1, 1.5, math.NaN(), math.Inf(1)} {
		if ValidRate(r) {
			t.Errorf("ValidRate(%g) = true", r)
		}
	}
}
