package tilemux

import (
	"errors"
	"fmt"

	"m3v/internal/dtu"
	"m3v/internal/proto"
	"m3v/internal/sim"
	"m3v/internal/trace"
)

// This file implements the TMCalls: the trap interface activities use to
// interact with TileMux (paper §3.3: "TMCalls are used by activities to
// block for incoming messages or report a voluntary exit"), plus the
// operation bracketing that arbitrates the core between activity code and
// TileMux.

// ErrSegfault is returned when a translation cannot be resolved: the address
// is unmapped and the activity has no pager.
var ErrSegfault = errors.New("tilemux: segmentation fault")

// BeginOp waits until the activity is current and takes the core token. All
// activity-level operations (compute chunks, DTU commands) are bracketed by
// BeginOp/EndOp, which is what serializes core time between activities and
// TileMux.
func (a *Act) BeginOp() {
	m := a.mux
	m.ensureRunning(a)
	m.acquire(a.proc, false)
	a.opStart = m.eng.Now()
}

// EndOp releases the core token and accounts the elapsed core time.
func (a *Act) EndOp() {
	m := a.mux
	a.BusyTime += m.eng.Now() - a.opStart
	m.release()
}

// Proc returns the activity's simulation process.
func (a *Act) Proc() *sim.Proc { return a.proc }

// Compute charges n core cycles of computation, honouring preemption at
// chunk boundaries.
func (a *Act) Compute(n int64) { a.ComputeTime(a.mux.cy(n)) }

// ComputeTime charges a duration of computation.
func (a *Act) ComputeTime(d sim.Time) {
	m := a.mux
	p := a.proc
	for d > 0 {
		a.BeginOp()
		chunk := d
		if chunk > m.costs.ComputeChunk {
			chunk = m.costs.ComputeChunk
		}
		if rem := a.sliceEnd - m.eng.Now(); rem > 0 && chunk > rem {
			chunk = rem
		}
		p.Sleep(chunk)
		d -= chunk
		if a.preempt && len(m.runq) > 0 {
			// Timer interrupt: round-robin to the next ready activity.
			p.Sleep(m.cy(m.costs.Irq))
			a.state = actReady
			m.runq = append(m.runq, a)
			next := m.popRun()
			a.BusyTime += m.eng.Now() - a.opStart
			m.switchTo(p, next, trace.SwitchPreempt)
			m.release()
			continue
		}
		a.EndOp()
	}
}

// WaitForMsg blocks until the activity has unread messages (TMCall "wait").
// If other activities are ready, TileMux blocks the caller and switches;
// otherwise the vDTU is polled (paper §3.7). The atomic SWITCH_ACT return
// value closes the lost-wakeup window.
func (a *Act) WaitForMsg() {
	m := a.mux
	p := a.proc
	a.BeginOp()
	p.Sleep(m.cy(m.costs.TMCall))
	for {
		if _, msgs := m.d.CurAct(); msgs+m.curExtra > 0 || a.ext > 0 {
			a.EndOp()
			return
		}
		if next := m.popRun(); next != nil {
			// Block and switch away. switchTo re-readies us if a message
			// raced with the decision.
			a.wantMsg = true
			a.state = actBlocked
			a.BusyTime += m.eng.Now() - a.opStart
			m.switchTo(p, next, trace.SwitchBlock)
			m.release()
			a.BeginOp() // parks until we are dispatched again
			a.wantMsg = false
		} else {
			// No other ready activity: poll the vDTU.
			a.EndOp()
			p.Sleep(m.costs.PollInterval)
			a.BeginOp()
		}
	}
}

// Yield gives up the core voluntarily (TMCall "yield").
func (a *Act) Yield() {
	m := a.mux
	p := a.proc
	a.BeginOp()
	p.Sleep(m.cy(m.costs.TMCall))
	next := m.popRun()
	if next == nil {
		a.EndOp()
		return
	}
	a.state = actReady
	m.runq = append(m.runq, a)
	a.BusyTime += m.eng.Now() - a.opStart
	m.switchTo(p, next, trace.SwitchYield)
	m.release()
	a.BeginOp()
	a.EndOp()
}

// Exit reports a voluntary exit (TMCall "exit"), notifies the controller,
// and schedules the next activity. It does not return control to the
// program: the caller must return immediately afterwards.
func (a *Act) Exit(code int32) {
	m := a.mux
	p := a.proc
	a.BeginOp()
	p.Sleep(m.cy(m.costs.TMCall))
	a.ExitCode = code
	a.state = actExited
	a.BusyTime += m.eng.Now() - a.opStart
	m.rec.ActExit(int64(m.eng.Now()), int(m.d.Tile()), int64(a.ID), int64(code))
	// Notify the controller through TileMux's own send endpoint.
	if m.eps.KernSgate >= 0 {
		m.asMux(p, func() {
			msg := proto.NewWriter(proto.OpNotifyExit).U16(uint16(a.ID)).U32(uint32(code)).Done()
			err := m.d.Send(p, dtu.SendArgs{Ep: m.eps.KernSgate, Data: msg, ReplyEp: -1})
			if err != nil && !errors.Is(err, dtu.ErrNoCredits) {
				panic(fmt.Sprintf("tilemux: exit notification failed: %v", err))
			}
		})
	}
	next := m.popRun()
	m.switchTo(p, next, trace.SwitchExit)
	m.release()
}

// FixTranslation resolves a TLB miss reported by a failing vDTU command
// (TMCall "translate", paper §3.6). A present page-table entry is installed
// directly; a missing one triggers the page-fault protocol: TileMux sends a
// request to the activity's pager, blocks the activity, and lets other
// activities run until the pager's reply arrives (paper §4.3).
func (a *Act) FixTranslation(vaddr uint64, perm dtu.Perm) error {
	m := a.mux
	p := a.proc
	a.BeginOp()
	p.Sleep(m.cy(m.costs.TMCall))
	vpage := vaddr >> dtu.PageShift
	if e, ok := a.pages[vpage]; ok && e.perm.Has(perm) {
		m.d.InsertTLB(p, a.ID, vaddr, e.ppage<<dtu.PageShift, e.perm)
		a.EndOp()
		return nil
	}
	if a.pagerEp < 0 {
		a.EndOp()
		return fmt.Errorf("%w: act %d vaddr %#x", ErrSegfault, a.ID, vaddr)
	}
	// Major fault: ask the pager and block until the reply is processed.
	m.cPageFaults.Inc()
	m.rec.PageFault(int64(m.eng.Now()), int(m.d.Tile()), int64(a.ID), vaddr, int64(perm))
	a.pfPending = true
	a.state = actFaulting
	m.asMux(p, func() {
		msg := proto.NewWriter(proto.OpPageFault).
			U16(uint16(a.ID)).U64(vaddr).U8(uint8(perm)).Done()
		err := m.d.Send(p, dtu.SendArgs{
			Ep: a.pagerEp, Data: msg,
			ReplyEp: m.eps.PfRgate, ReplyLabel: uint64(a.ID),
		})
		if err != nil {
			panic(fmt.Sprintf("tilemux: page-fault send failed: %v", err))
		}
	})
	a.BusyTime += m.eng.Now() - a.opStart
	m.switchTo(p, m.popRun(), trace.SwitchFault)
	m.release()
	a.BeginOp() // parks until the pager reply re-readies us
	// Retry: the pager must have mapped the page by now.
	if e, ok := a.pages[vpage]; ok && e.perm.Has(perm) {
		m.d.InsertTLB(p, a.ID, vaddr, e.ppage<<dtu.PageShift, e.perm)
		a.EndOp()
		return nil
	}
	a.EndOp()
	return fmt.Errorf("%w: pager did not map act %d vaddr %#x", ErrSegfault, a.ID, vaddr)
}

// RaiseExternal delivers a tile-local device interrupt (e.g. the NIC) to an
// activity: TileMux marks it ready if it is blocked. Safe from handler
// context.
func (m *Mux) RaiseExternal(id dtu.ActID) {
	a := m.acts[id]
	if a == nil {
		return
	}
	a.ext++
	if a.state == actBlocked && a.wantMsg {
		m.makeReady(a)
	}
}

// TakeExternal consumes one pending external event, reporting whether one
// was pending. Device drivers call it from their event loops.
func (a *Act) TakeExternal() bool {
	if a.ext == 0 {
		return false
	}
	a.ext--
	return true
}
