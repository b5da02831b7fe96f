package sim

import (
	"runtime"
	"testing"
	"time"
)

// modelBug is a panic value a test can tell apart from any other.
type modelBug struct{ at Time }

// TestProcPanicReachesRun: a panic inside a process unwinds out of
// Engine.Run with its original value, on the goroutine that called Run, and
// leaves an engine that Shutdown can still unwind.
func TestProcPanicReachesRun(t *testing.T) {
	e := NewEngine()
	e.Spawn("bystander", func(p *Proc) { p.Park() })
	e.Spawn("buggy", func(p *Proc) {
		p.Sleep(3 * Microsecond)
		panic(modelBug{at: p.Now()})
	})
	got := func() (r any) {
		defer func() { r = recover() }()
		e.Run()
		return nil
	}()
	bug, ok := got.(modelBug)
	if !ok {
		t.Fatalf("recovered %#v at the Run call site, want a modelBug", got)
	}
	if bug.at != 3*Microsecond {
		t.Errorf("panic raised at %v, want 3us", bug.at)
	}
	if e.Live() != 1 {
		t.Errorf("live = %d after the panic, want 1 (the parked bystander)", e.Live())
	}
	e.Shutdown()
}

// TestProcGoexitEndsRunGoroutine: runtime.Goexit inside a process (what
// t.Fatal does in a test process) ends the goroutine that called Run
// instead of deadlocking the engine.
func TestProcGoexitEndsRunGoroutine(t *testing.T) {
	e := NewEngine()
	e.Spawn("bystander", func(p *Proc) { p.Park() })
	e.Spawn("quitter", func(p *Proc) {
		p.Sleep(Microsecond)
		runtime.Goexit()
	})
	done := make(chan struct{})
	returned := false
	go func() {
		defer close(done)
		e.Run()
		returned = true
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("Run's goroutine did not end after Goexit in a process")
	}
	if returned {
		t.Error("Run returned normally; want its goroutine ended by Goexit")
	}
	if e.Live() != 1 {
		t.Errorf("live = %d, want 1 (the parked bystander)", e.Live())
	}
	e.Shutdown()
}

// TestShutdownRunsDefersAndFreesGoroutines: Shutdown unwinds every parked
// process through its deferred calls and leaves no goroutine behind.
func TestShutdownRunsDefersAndFreesGoroutines(t *testing.T) {
	const n = 200
	baseline := runtime.NumGoroutine()
	e := NewEngine()
	deferred := 0
	for i := 0; i < n; i++ {
		e.Spawn("parked", func(p *Proc) {
			defer func() { deferred++ }()
			p.Park()
		})
	}
	e.Run()
	if e.Live() != n {
		t.Fatalf("live = %d before Shutdown, want %d", e.Live(), n)
	}
	e.Shutdown()
	if deferred != n {
		t.Errorf("%d of %d process defers ran at Shutdown", deferred, n)
	}
	if e.Live() != 0 {
		t.Errorf("live = %d after Shutdown, want 0", e.Live())
	}
	// A stopped coroutine's goroutine has exited by the time stop returns;
	// allow the runtime a moment only for unrelated goroutines to settle.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline && time.Now().Before(deadline) {
		runtime.Gosched()
	}
	if got := runtime.NumGoroutine(); got > baseline {
		t.Errorf("goroutines = %d after Shutdown, want baseline %d", got, baseline)
	}
}

// TestSpawnAfterShutdownPanics: a dead engine refuses new processes.
func TestSpawnAfterShutdownPanics(t *testing.T) {
	e := NewEngine()
	e.Run()
	e.Shutdown()
	defer func() {
		if r := recover(); r != "sim: Spawn after Shutdown" {
			t.Errorf("Spawn after Shutdown recovered %v, want the Spawn-after-Shutdown panic", r)
		}
	}()
	e.Spawn("late", func(p *Proc) {})
}
