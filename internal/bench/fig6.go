package bench

import (
	"errors"
	"fmt"

	"m3v/internal/activity"
	"m3v/internal/cap"
	"m3v/internal/core"
	"m3v/internal/linuxos"
	"m3v/internal/noc"
	"m3v/internal/sim"
)

// rpcShare coordinates the RPC benchmark programs.
type rpcShare struct {
	sgateSel cap.Sel
	ready    bool
}

// measureM3vRPC times no-op RPCs between two activities, tile-local or
// cross-tile, on BOOM cores (paper §6.2: 1000 runs with a warm system; we
// use fewer repetitions since the simulation is deterministic).
func measureM3vRPC(p Params, c *sim.Canceler, sameTile bool, rounds int) sim.Time {
	sys := p.newSystem(core.FPGAConfig(), c)
	defer sys.Shutdown()
	procs := sys.Cfg.ProcessingTiles()
	clientTile := procs[1] // first BOOM core
	serverTile := procs[2]
	if sameTile {
		serverTile = clientTile
	}
	return measureRPCOn(sys, clientTile, serverTile, rounds)
}

// measureRPCOn runs the RPC measurement on a prebuilt system (the ablation
// benches mutate cost tables before calling it).
func measureRPCOn(sys *core.System, clientTile, serverTile noc.TileID, rounds int) sim.Time {
	share := &rpcShare{}
	var total sim.Time
	sys.SpawnRoot(clientTile, "client", nil, func(a *activity.Activity) {
		tiles := core.TileSels(a)
		_, err := a.Spawn(tiles[serverTile], serverTile, "server",
			map[string]interface{}{"share": share, "rounds": rounds}, rpcEchoServer)
		if err != nil {
			panic(err)
		}
		for !share.ready {
			a.Compute(1000)
			a.Yield()
		}
		sgEp, err := a.SysActivate(share.sgateSel)
		if err != nil {
			panic(err)
		}
		rgSel, _ := a.SysCreateRGate(1, 64)
		rgEp, _ := a.SysActivate(rgSel)
		if _, err := a.Call(sgEp, rgEp, []byte{0}); err != nil { // warmup
			panic(err)
		}
		start := a.Now()
		for i := 0; i < rounds; i++ {
			if _, err := a.Call(sgEp, rgEp, []byte{1}); err != nil {
				panic(err)
			}
		}
		total = a.Now() - start
	})
	sys.Run(60 * sim.Second)
	return total / sim.Time(rounds)
}

// rpcEchoServer answers rounds+1 no-op requests (one warmup).
func rpcEchoServer(a *activity.Activity) {
	share := a.Env["share"].(*rpcShare)
	rounds := a.Env["rounds"].(int)
	rgSel, err := a.SysCreateRGate(1, 64)
	if err != nil {
		panic(err)
	}
	rgEp, err := a.SysActivate(rgSel)
	if err != nil {
		panic(err)
	}
	sgSel, err := a.SysCreateSGate(rgSel, 0, 1)
	if err != nil {
		panic(err)
	}
	delegated, err := a.SysDelegate(1, sgSel) // the root is activity 1
	if err != nil {
		panic(err)
	}
	share.sgateSel = delegated
	share.ready = true
	for i := 0; i < rounds+1; i++ {
		slot, msg := a.Recv(rgEp)
		if err := a.ReplyMsg(rgEp, slot, msg, []byte{2}, 0); err != nil {
			panic(fmt.Sprintf("rpc server reply: %v", err))
		}
	}
}

// measureLinuxSyscall times no-op system calls on the Linux model.
func measureLinuxSyscall(c *sim.Canceler, rounds int) sim.Time {
	eng := newLinuxEngine(c)
	defer eng.Shutdown()
	m := linuxos.New(eng, sim.MHz(80))
	var per sim.Time
	m.Spawn("syscall", func(p *linuxos.Proc) {
		p.SyscallNoop() // warmup
		start := p.Now()
		for i := 0; i < rounds; i++ {
			p.SyscallNoop()
		}
		per = (p.Now() - start) / sim.Time(rounds)
	})
	eng.RunUntil(60 * sim.Second)
	return per
}

// measureLinuxYield2 times two yields between two processes (the paper's
// analogue of a tile-local RPC: two context switches).
func measureLinuxYield2(c *sim.Canceler, rounds int) sim.Time {
	eng := newLinuxEngine(c)
	defer eng.Shutdown()
	m := linuxos.New(eng, sim.MHz(80))
	var per sim.Time
	m.Spawn("a", func(p *linuxos.Proc) {
		p.Yield() // warmup
		start := p.Now()
		for i := 0; i < rounds; i++ {
			p.Yield() // switch to b and eventually back: 2 switches/round
		}
		per = (p.Now() - start) / sim.Time(rounds)
	})
	m.Spawn("b", func(p *linuxos.Proc) {
		for i := 0; i < rounds+2; i++ {
			p.Yield()
		}
	})
	eng.RunUntil(60 * sim.Second)
	return per
}

// Fig6 reproduces Figure 6: local/remote communication on M³v and the
// corresponding Linux primitives. Values in microseconds on 80 MHz BOOM
// cores; the paper's anchors are ~25us for both the Linux no-op syscall and
// the M³v remote RPC, ~5k cycles (~62us) for the tile-local RPC. Tiles is
// ignored: the topology is the fixed FPGA platform.
func Fig6(p Params, c *sim.Canceler) (*Result, error) {
	const rounds = 100
	clk := sim.MHz(80)
	pts := runPoints(4, func(i int) sim.Time {
		switch i {
		case 0:
			return measureM3vRPC(p, c, false, rounds)
		case 1:
			return measureM3vRPC(p, c, true, rounds)
		case 2:
			return measureLinuxSyscall(c, rounds)
		default:
			return measureLinuxYield2(c, rounds)
		}
	})
	if c.Cancelled() {
		return nil, ErrCancelled
	}
	remote, local, syscall, yield2 := pts[0], pts[1], pts[2], pts[3]
	if remote <= 0 || local <= 0 {
		// An unfinished run leaves the client mid-loop and its total at zero.
		return nil, errors.New("fig6: rpc measurement incomplete")
	}
	r := &Result{ID: "fig6", Title: "Local/remote no-op RPC vs Linux primitives"}
	r.Add("Linux yield (2x)", yield2.Micros(), "us", 55)
	r.Add("Linux syscall", syscall.Micros(), "us", 25)
	r.Add("M3v local", local.Micros(), "us", 62)
	r.Add("M3v remote", remote.Micros(), "us", 25)
	r.Add("M3v local (cycles)", float64(clk.CyclesIn(local)), "cycles", 5000)
	r.Add("M3v remote (cycles)", float64(clk.CyclesIn(remote)), "cycles", 2000)
	r.Note("shape: remote RPC ~ Linux syscall; local RPC ~ Linux 2x yield, several times remote")
	return r, nil
}
