package m3x

import (
	"testing"

	"m3v/internal/dtu"
	"m3v/internal/kernel"
	"m3v/internal/noc"
	"m3v/internal/sim"
)

// TestSaveRestoreAllocFree is the allocation guard of the M³x remote
// switch's endpoint traffic: once two activities sharing a tile have each
// been switched out and back in, saving one's endpoints and restoring the
// other's allocates nothing. The saved sets keep their arrays across
// restores, and the read-back and invalidate buffers are reused.
func TestSaveRestoreAllocFree(t *testing.T) {
	eng := sim.NewEngine()
	defer eng.Shutdown()
	net := noc.New(eng, noc.StarMesh{NumTiles: 2})
	k := kernel.New(eng, dtu.New(eng, net, 0, sim.MHz(100), false), sim.MHz(100))
	tile := dtu.New(eng, net, 1, sim.MHz(100), false)
	d := &Driver{k: k, saved: make(map[uint32][]dtu.EpConf)}

	// Activity 1 owns endpoints 8-9 and is live on the tile; activity 2
	// owns 10-11 and is saved.
	const first, count = 8, 4
	must := func(err error) {
		if err != nil {
			t.Fatal(err)
		}
	}
	must(tile.ConfigureLocal(8, dtu.SendEP(1, 0, 5, 0x1, 2, 64)))
	must(tile.ConfigureLocal(9, dtu.RecvEP(1, 4, 64)))
	d.setSaved(2, 10, dtu.SendEP(2, 0, 6, 0x2, 2, 64))
	d.setSaved(2, 11, dtu.RecvEP(2, 4, 64))

	cur, next := uint32(1), uint32(2)
	target, done := 0, 0
	ctrl := eng.Spawn("controller", func(p *sim.Proc) {
		for {
			for done >= target {
				p.Park()
			}
			d.saveEps(p, 1, cur, dtu.ActID(cur), first, count)
			d.restoreSaved(p, 1, next)
			cur, next = next, cur
			done++
		}
	})
	swap := func() {
		target++
		ctrl.Wake()
		eng.Run()
		if done != target {
			t.Fatalf("swap %d did not complete", target)
		}
	}
	eng.Run()
	for i := 0; i < 4; i++ {
		swap() // every set and buffer reaches its working size
	}
	if got := tile.Ep(8 + dtu.EpID(2*(cur-1))); got.Act != dtu.ActID(cur) {
		t.Fatalf("after the warm-up swaps, activity %d's endpoints are not live", cur)
	}
	if n := len(d.saved[cur]); n != 0 {
		t.Fatalf("live activity %d still has %d saved endpoints", cur, n)
	}
	if n := len(d.saved[next]); n != 2 {
		t.Fatalf("switched-out activity %d has %d saved endpoints, want 2", next, n)
	}
	if got := testing.AllocsPerRun(100, swap); got != 0 {
		t.Errorf("save+restore allocates %.1f per switch, want 0", got)
	}
}
