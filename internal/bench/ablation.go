package bench

import (
	"m3v/internal/core"
	"m3v/internal/dtu"
	"m3v/internal/sim"
)

// mediationCycles is the per-command charge of a TileMux-mediated vDTU
// access: trap entry/exit, argument copy, endpoint-ownership validation in
// software, and the return, on top of the hardware command itself.
const mediationCycles = 2200

// Ablations quantifies the design choice the paper calls out in §3.5: the
// first M³v design iteration let TileMux mediate every vDTU access instead
// of tagging endpoints with activity ids; it "degraded the performance of
// all communication by an order of magnitude due to several involvements of
// TileMux". We reproduce the comparison by charging each unprivileged vDTU
// command the two protection-domain crossings and argument validation of a
// mediating trap.
func Ablations(p Params, c *sim.Canceler) (*Result, error) {
	// The two measurements are independent systems; run them as sweep
	// points.
	pts := runPoints(2, func(i int) sim.Time {
		if i == 0 {
			return measureM3vRPC(p, c, false, 50)
		}
		return measureMediatedRPC(p, c, 50)
	})
	if c.Cancelled() {
		return nil, ErrCancelled
	}
	r := &Result{ID: "ablation", Title: "Design-choice ablations"}
	base, mediated := pts[0], pts[1]

	r.Add("remote RPC, tagged endpoints", base.Micros(), "us", 25)
	r.Add("remote RPC, TileMux-mediated", mediated.Micros(), "us", 0)
	r.Add("mediation slowdown", float64(mediated)/float64(base), "x", 10)

	r.Add("per-command overhead at 80MHz", sim.MHz(80).Cycles(dtu.SendCycles).Micros(), "us", 0)
	r.Note("paper §3.5: mediation cost is why activities use the vDTU directly")
	return r, nil
}

// measureMediatedRPC measures a remote no-op RPC with every unprivileged
// vDTU command on the processing tiles charged mediationCycles.
func measureMediatedRPC(p Params, c *sim.Canceler, rounds int) sim.Time {
	sys := p.newSystem(core.FPGAConfig(), c)
	defer sys.Shutdown()
	procs := sys.Cfg.ProcessingTiles()
	for _, tile := range procs {
		sys.DTU(tile).SetMediation(mediationCycles)
	}
	return measureRPCOn(sys, procs[1], procs[2], rounds)
}
