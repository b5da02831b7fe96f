package main

import (
	"reflect"
	"testing"

	"m3v/internal/traces"
)

func TestSeededTracesAreDeterministic(t *testing.T) {
	for _, sh := range []shape{shapeFind, shapeSQLite} {
		for seed := uint64(1); seed <= 5; seed++ {
			a, b := sh.gen(seed), sh.gen(seed)
			if !reflect.DeepEqual(a, b) {
				t.Errorf("%s seed %d: two generations differ", sh, seed)
			}
			if reflect.DeepEqual(a.Run, sh.gen(seed+1).Run) {
				t.Errorf("%s: seeds %d and %d give the same run phase", sh, seed, seed+1)
			}
		}
	}
}

// TestSeededTracesKeepTheirBudget checks that the seed changes a trace's
// structure but not, beyond rounding, how many file-system calls it makes:
// runs with different seeds must do comparable work.
func TestSeededTracesKeepTheirBudget(t *testing.T) {
	for seed := uint64(1); seed <= 50; seed++ {
		if n, _ := FindShaped(seed).Stats(); n < findEntries || n > findEntries+12 {
			t.Errorf("find seed %d: %d calls, want %d stats plus one readdir per directory", seed, n, findEntries)
		}
		if n, _ := SQLiteShaped(seed).Stats(); n < sqliteCalls-selectCalls || n > sqliteCalls+selectCalls {
			t.Errorf("sqlite seed %d: %d calls, want %d±%d", seed, n, sqliteCalls, selectCalls)
		}
	}
}

// TestSeededTracesReplay runs generated traces at one worker tile on both
// systems: every call must succeed and every player finish.
func TestSeededTracesReplay(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates four points")
	}
	for _, m3x := range []bool{false, true} {
		for si, sh := range []shape{shapeFind, shapeSQLite} {
			seed := uint64(7 + si)
			p := &point{label: string(sh), m3x: m3x, tiles: 1, traces: []*traces.Trace{sh.gen(seed)}}
			res, err := runPoint(p, nil)
			if err != nil {
				t.Fatalf("m3x=%v %s: %v", m3x, sh, err)
			}
			n, _ := p.traces[0].Stats()
			setup := len(p.traces[0].Setup)
			if want := int64(setup + (warmupRuns+timedRuns)*n); res.fsOps != want {
				t.Errorf("m3x=%v %s: %d file-system calls, want %d", m3x, sh, res.fsOps, want)
			}
		}
	}
}
