// Package m3x implements the M³x baseline (Asmussen et al., ATC'19), which
// the paper compares against in §6.4 / Figure 9: tile multiplexing is
// performed *remotely by the controller*. Each user tile runs only a thin
// RCTMux that stops and resumes activities on controller request; the
// controller saves and restores DTU endpoint state over the NoC, makes all
// scheduling decisions, and forwards messages for non-running recipients
// through the slow path.
package m3x

import (
	"fmt"

	"m3v/internal/dtu"
	"m3v/internal/proto"
	"m3v/internal/sim"
)

// Costs is the RCTMux timing model, in core cycles of the tile.
type Costs struct {
	HandleMsg int64    // handling one controller request
	Stop      int64    // stopping the current activity (trap + save regs)
	Resume    int64    // resuming an activity (restore regs + return)
	Poll      sim.Time // DTU poll interval while waiting for messages
}

// DefaultCosts returns the calibrated cost model.
func DefaultCosts() Costs {
	return Costs{HandleMsg: 200, Stop: 250, Resume: 250, Poll: sim.Microsecond}
}

// EPConfig names RCTMux's endpoints (configured at boot).
type EPConfig struct {
	KernRgate dtu.EpID
	KernSgate dtu.EpID
}

// RCTMux is the per-tile remote-controlled multiplexer.
type RCTMux struct {
	eng   *sim.Engine
	clock sim.Clock
	d     *dtu.DTU
	eps   EPConfig
	costs Costs

	acts map[dtu.ActID]*Act
	cur  *Act

	// Core token (one execution context at a time), as in TileMux.
	coreBusy   bool
	coreQ      sim.WaitQueue
	muxWaiting bool

	proc *sim.Proc

	// stopReq is set while the controller waits for the current activity to
	// reach an operation boundary.
	stopReq   bool
	stopSlot  int
	stopValid bool

	// Stops counts honoured stop requests, for tests.
	Stops int64
}

// Act is one activity's tile-side state and its activity.Exec
// implementation for the M³x baseline.
type Act struct {
	ID   dtu.ActID
	Name string

	mux     *RCTMux
	proc    *sim.Proc
	started bool
	exited  bool

	opStart  sim.Time
	BusyTime sim.Time
}

// New creates an RCTMux bound to a (non-virtualized) DTU.
func New(eng *sim.Engine, clock sim.Clock, d *dtu.DTU, eps EPConfig) *RCTMux {
	if d.Virtualized() {
		panic("m3x: RCTMux runs on plain DTUs")
	}
	m := &RCTMux{
		eng:   eng,
		clock: clock,
		d:     d,
		eps:   eps,
		costs: DefaultCosts(),
		acts:  make(map[dtu.ActID]*Act),
	}
	d.SetCurAct(dtu.ActInvalid)
	d.OnMsgArrived = func(act dtu.ActID) {
		if act == dtu.ActTileMux {
			m.proc.Wake()
		}
	}
	m.proc = eng.Spawn(fmt.Sprintf("rctmux@%d", d.Tile()), m.loop)
	return m
}

// Costs returns the timing model for calibration.
func (m *RCTMux) Costs() *Costs { return &m.costs }

func (m *RCTMux) cy(n int64) sim.Time { return m.clock.Cycles(n) }

// AttachExec binds an activity's program process (loader interface).
func (m *RCTMux) AttachExec(id dtu.ActID, p *sim.Proc) *Act {
	a := m.acts[id]
	if a == nil {
		panic(fmt.Sprintf("m3x: attach to unknown activity %d", id))
	}
	a.proc = p
	m.maybeRun(a)
	return a
}

// maybeRun makes a runnable activity current if the core is free. Further
// scheduling is the controller's job.
func (m *RCTMux) maybeRun(a *Act) {
	if a.started && a.proc != nil && m.cur == nil && !a.exited {
		m.cur = a
		m.d.ResetCur(a.ID, m.d.UnreadOf(a.ID))
		a.proc.Wake()
	}
}

// --- core token -------------------------------------------------------------

func (m *RCTMux) acquire(p *sim.Proc, isMux bool) {
	for m.coreBusy || (!isMux && m.muxWaiting) {
		if isMux {
			m.muxWaiting = true
			p.Park()
		} else {
			m.coreQ.Wait(p)
		}
	}
	if isMux {
		m.muxWaiting = false
	}
	m.coreBusy = true
}

func (m *RCTMux) release() {
	m.coreBusy = false
	if m.muxWaiting {
		m.proc.Wake()
		return
	}
	m.coreQ.WakeOne()
}

// waitRun parks the activity until it is current, honouring stop requests at
// the boundary.
func (m *RCTMux) waitRun(a *Act) {
	for {
		if m.cur == a {
			if !m.stopReq {
				return
			}
			// Honour the controller's stop: step aside and signal.
			m.stopReq = false
			m.cur = nil
			m.Stops++
			m.proc.Wake()
		}
		a.proc.Park()
	}
}

// --- controller request handling --------------------------------------------

func (m *RCTMux) loop(p *sim.Proc) {
	for {
		if !m.hasWork() {
			p.Park()
			continue
		}
		m.acquire(p, true)
		// A pending stop completed (the activity parked)?
		if m.stopValid && m.cur == nil && !m.stopReq {
			m.stopValid = false
			p.Sleep(m.cy(m.costs.Stop))
			if err := m.d.Reply(p, m.eps.KernRgate, m.stopSlot, proto.Resp(proto.EOK), 0); err != nil {
				panic(fmt.Sprintf("m3x: stop reply failed: %v", err))
			}
		}
		for m.d.HasUnread(m.eps.KernRgate) {
			slot, msg, err := m.d.Fetch(p, m.eps.KernRgate)
			if err != nil {
				break
			}
			p.Sleep(m.cy(m.costs.HandleMsg))
			resp, deferred := m.handleKernelReq(p, msg.Data, slot)
			if deferred {
				continue
			}
			if err := m.d.Reply(p, m.eps.KernRgate, slot, resp, 0); err != nil {
				panic(fmt.Sprintf("m3x: reply failed: %v", err))
			}
		}
		m.release()
	}
}

func (m *RCTMux) hasWork() bool {
	if m.d.HasUnread(m.eps.KernRgate) {
		return true
	}
	return m.stopValid && m.cur == nil && !m.stopReq
}

func (m *RCTMux) handleKernelReq(p *sim.Proc, data []byte, slot int) ([]byte, bool) {
	op, r, err := proto.ParseOp(data)
	if err != nil {
		return proto.Resp(proto.EInvalid), false
	}
	switch op {
	case proto.OpMuxCreateAct:
		id := dtu.ActID(r.U16())
		name := r.Str()
		m.acts[id] = &Act{ID: id, Name: name, mux: m}
		return proto.Resp(proto.EOK), false
	case proto.OpMuxStartAct:
		a := m.acts[dtu.ActID(r.U16())]
		if a == nil {
			return proto.Resp(proto.EInvalid), false
		}
		a.started = true
		m.maybeRun(a)
		return proto.Resp(proto.EOK), false
	case proto.OpMuxKillAct:
		a := m.acts[dtu.ActID(r.U16())]
		if a != nil {
			a.exited = true
			if m.cur == a {
				m.cur = nil
			}
		}
		return proto.Resp(proto.EOK), false
	case proto.OpMuxSwitch:
		// Stop the current activity; the reply is deferred until it reached
		// an operation boundary.
		if m.cur == nil {
			p.Sleep(m.cy(m.costs.Stop))
			return proto.Resp(proto.EOK), false
		}
		m.stopReq = true
		m.stopSlot = slot
		m.stopValid = true
		return nil, true
	case proto.OpMuxResume:
		id := dtu.ActID(r.U16())
		a := m.acts[id]
		if a == nil || a.proc == nil {
			return proto.Resp(proto.EInvalid), false
		}
		p.Sleep(m.cy(m.costs.Resume))
		m.cur = a
		m.d.ResetCur(a.ID, m.d.UnreadOf(a.ID))
		a.proc.Wake()
		return proto.Resp(proto.EOK), false
	default:
		return proto.Resp(proto.EInvalid), false
	}
}

// --- activity.Exec implementation -------------------------------------------

// BeginOp waits until the activity is current and takes the core.
func (a *Act) BeginOp() {
	m := a.mux
	m.waitRun(a)
	m.acquire(a.proc, false)
	a.opStart = m.eng.Now()
}

// EndOp releases the core.
func (a *Act) EndOp() {
	m := a.mux
	a.BusyTime += m.eng.Now() - a.opStart
	m.release()
}

// Proc returns the activity's process.
func (a *Act) Proc() *sim.Proc { return a.proc }

// Busy reports accumulated core time.
func (a *Act) Busy() sim.Time { return a.BusyTime }

// Compute charges core cycles, honouring controller stops at chunk
// boundaries.
func (a *Act) Compute(n int64) { a.ComputeTime(a.mux.cy(n)) }

// ComputeTime charges a duration of computation.
func (a *Act) ComputeTime(d sim.Time) {
	const chunk = 100 * sim.Microsecond
	for d > 0 {
		a.BeginOp()
		c := d
		if c > chunk {
			c = chunk
		}
		a.proc.Sleep(c)
		d -= c
		a.EndOp()
	}
}

// WaitForMsg polls the DTU until the activity has unread messages. On M³x
// there is no core-request interrupt: a stopped activity simply stays
// stopped until the controller resumes it, and a running one polls.
func (a *Act) WaitForMsg() {
	m := a.mux
	for {
		a.BeginOp()
		_, msgs := m.d.CurAct()
		a.EndOp()
		if msgs > 0 {
			return
		}
		a.proc.Sleep(m.costs.Poll)
	}
}

// Yield is a no-op hint on M³x: scheduling is remote.
func (a *Act) Yield() {
	a.BeginOp()
	a.proc.Sleep(a.mux.cy(100))
	a.EndOp()
}

// Exit reports termination to the controller through RCTMux's send gate.
func (a *Act) Exit(code int32) {
	m := a.mux
	a.BeginOp()
	a.exited = true
	msg := proto.NewWriter(proto.OpNotifyExit).U16(uint16(a.ID)).U32(uint32(code)).Done()
	if err := m.d.Send(a.proc, dtu.SendArgs{Ep: m.eps.KernSgate, Data: msg, ReplyEp: -1}); err != nil {
		panic(fmt.Sprintf("m3x: exit notify failed: %v", err))
	}
	m.cur = nil
	a.BusyTime += m.eng.Now() - a.opStart
	m.release()
	m.proc.Wake() // let RCTMux pick another local activity if one is ready
}

// FixTranslation is a no-op: the plain DTU has no TLB (the M³x baseline runs
// without vDTU address translation).
func (a *Act) FixTranslation(vaddr uint64, perm dtu.Perm) error { return nil }
