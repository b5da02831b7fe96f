package bench

import (
	"errors"
	"strings"
	"testing"

	"m3v/internal/sim"
	"m3v/internal/traces"
)

// mustRun runs one experiment driver without a canceler and fails the test
// on error.
func mustRun(t *testing.T, run func(Params, *sim.Canceler) (*Result, error), p Params) *Result {
	t.Helper()
	r, err := run(p, nil)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return r
}

// TestRegistryShape pins the registry's canonical order, ID uniqueness,
// and that every entry has a driver.
func TestRegistryShape(t *testing.T) {
	wantOrder := []string{"table1", "sloc", "fig6", "fig7", "fig8", "fig9", "voice", "fig10", "ablation"}
	reg := Experiments()
	if len(reg) != len(wantOrder) {
		t.Fatalf("registry has %d entries, want %d", len(reg), len(wantOrder))
	}
	seen := make(map[string]bool)
	for i, e := range reg {
		if e.ID != wantOrder[i] {
			t.Errorf("registry[%d].ID = %q, want %q", i, e.ID, wantOrder[i])
		}
		if seen[e.ID] {
			t.Errorf("duplicate registry ID %q", e.ID)
		}
		seen[e.ID] = true
		if e.Run == nil {
			t.Errorf("experiment %q has nil Run", e.ID)
		}
		if e.Title == "" {
			t.Errorf("experiment %q has empty Title", e.ID)
		}
	}
	if _, ok := Lookup("nope"); ok {
		t.Error("Lookup(nope) succeeded")
	}
}

// TestServableFig6Deterministic runs fig6 twice with equal params and
// requires identical rendered tables — the property that makes the serving
// layer's result cache sound.
func TestServableFig6Deterministic(t *testing.T) {
	e, _ := Lookup("fig6")
	run := func() string {
		r, err := e.Run(Params{FaultSeed: 7, FaultRate: 0.01}, sim.NewCanceler())
		if err != nil {
			t.Fatalf("fig6: %v", err)
		}
		return r.String()
	}
	first := run()
	if second := run(); first != second {
		t.Errorf("fig6 not deterministic:\n%s\nvs\n%s", first, second)
	}
	for _, row := range []string{"Linux syscall", "M3v remote", "M3v local"} {
		if !strings.Contains(first, row) {
			t.Errorf("fig6 row %q missing:\n%s", row, first)
		}
	}
}

// TestServableFig9TileClamp checks the tile knob: Tiles > 0 measures only
// the M3v series at that one count, equal to the figure's own points.
func TestServableFig9TileClamp(t *testing.T) {
	e, _ := Lookup("fig9")
	r, err := e.Run(Params{Tiles: 1}, sim.NewCanceler())
	if err != nil {
		t.Fatalf("fig9 tiles 1: %v", err)
	}
	want := []struct {
		label string
		v     float64
	}{
		{"M3v find 1", Fig9Point(false, 1, traces.Find)},
		{"M3v SQLite 1", Fig9Point(false, 1, traces.SQLite)},
	}
	if len(r.Rows) != len(want) || len(r.Notes) != 0 {
		t.Fatalf("fig9 tiles 1 = %d rows, %d notes; want 2 rows, no notes:\n%s", len(r.Rows), len(r.Notes), r)
	}
	for i, w := range want {
		if r.Rows[i].Label != w.label || r.Rows[i].Value != w.v {
			t.Errorf("row %d = %q %v, want %q %v", i, r.Rows[i].Label, r.Rows[i].Value, w.label, w.v)
		}
	}
}

// TestServableCancelledBeforeStart: a canceler cancelled before the run
// starts must abort every experiment with ErrCancelled — engines attached
// after the cancellation execute zero events.
func TestServableCancelledBeforeStart(t *testing.T) {
	for _, e := range Experiments() {
		c := sim.NewCanceler()
		c.Cancel()
		if _, err := e.Run(Params{Tiles: 1}, c); !errors.Is(err, ErrCancelled) {
			t.Errorf("%s with pre-cancelled canceler: err = %v, want ErrCancelled", e.ID, err)
		}
	}
}

// TestServableCancelConcurrent cancels runs from another goroutine while
// they execute — the -race gate for the serving layer's deadline/disconnect
// path, on the fig9 point and on fig10's mixed M3v/Linux sweep. A run may
// legitimately win the race and complete; anything other than success or
// ErrCancelled is a failure.
func TestServableCancelConcurrent(t *testing.T) {
	for _, id := range []string{"fig9", "fig10"} {
		t.Run(id, func(t *testing.T) {
			e, _ := Lookup(id)
			c := sim.NewCanceler()
			done := make(chan error, 1)
			go func() {
				_, err := e.Run(Params{Tiles: 1}, c)
				done <- err
			}()
			c.Cancel()
			if err := <-done; err != nil && !errors.Is(err, ErrCancelled) {
				t.Errorf("concurrent cancel: err = %v, want nil or ErrCancelled", err)
			}
		})
	}
}
