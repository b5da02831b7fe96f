package dtu

import (
	"m3v/internal/sim"
	"m3v/internal/trace"
)

// This file implements the privileged interface, present only on the vDTU
// and mapped only for TileMux (paper §3.4–§3.8). Calling a privileged
// operation on a non-virtualized DTU panics: it is a model bug, equivalent
// to accessing unmapped MMIO.

func (d *DTU) requirePriv() {
	if !d.virt {
		panic("dtu: privileged interface on non-virtualized DTU")
	}
}

// SwitchAct atomically installs a new current activity (with its saved
// unread-message count) and returns the previous CUR_ACT contents. The
// atomicity guarantees that no message notification interleaves with the
// switch, which is what closes the lost-wakeup window for TileMux's blocking
// decision (paper §3.7).
func (d *DTU) SwitchAct(p *sim.Proc, act ActID, msgs int) (oldAct ActID, oldMsgs int) {
	d.requirePriv()
	d.charge(p, d.costs.PrivCmd)
	oldAct, oldMsgs = d.curAct, d.curMsgs
	d.curAct, d.curMsgs = act, msgs
	return oldAct, oldMsgs
}

// InsertTLB installs a translation through the privileged interface after
// TileMux resolved a TLB miss reported by a failing command (paper §3.6).
func (d *DTU) InsertTLB(p *sim.Proc, act ActID, vaddr, paddr uint64, perm Perm) {
	d.requirePriv()
	d.charge(p, d.costs.PrivCmd)
	if vAct, vAddr, evicted := d.tlb.Insert(act, vaddr, paddr, perm); evicted {
		d.rec.TLB(int64(d.eng.Now()), int(d.tile), trace.KindTLBEvict, int64(vAct), vAddr)
	}
}

// FetchCoreReq reads the head of the core-request queue: the activity that
// received a message while not running, plus the trace flow of the message
// that raised the request (0 when tracing is disabled). ok is false if the
// queue is empty. The request stays queued until AckCoreReq.
func (d *DTU) FetchCoreReq(p *sim.Proc) (act ActID, flow uint64, ok bool) {
	d.requirePriv()
	d.charge(p, d.costs.PrivCmd)
	if d.coreReqN == 0 {
		return ActInvalid, 0, false
	}
	head := &d.coreReqs[d.coreReqHead]
	return head.act, head.flow, true
}

// AckCoreReq pops the head core request and closes its dtu.core_req span.
// If more requests are queued, the vDTU injects another interrupt (paper
// §3.8).
func (d *DTU) AckCoreReq(p *sim.Proc) {
	d.requirePriv()
	d.charge(p, d.costs.PrivCmd)
	if d.coreReqN == 0 {
		return
	}
	cr := d.coreReqs[d.coreReqHead]
	d.coreReqs[d.coreReqHead] = coreReq{}
	d.coreReqHead = (d.coreReqHead + 1) % coreReqDepth
	d.coreReqN--
	d.m.coreReqDepth.Set(int64(d.coreReqN))
	d.rec.EndSpanArgs(cr.span, int64(d.eng.Now()), trace.PathNone,
		int64(cr.act), int64(d.coreReqN))
	d.rec.CoreReq(int64(d.eng.Now()), int(d.tile), trace.KindCoreReqDrain,
		int64(cr.act), int64(d.coreReqN))
	if d.coreReqN > 0 {
		d.injectIrq()
	}
}

// PendingCoreReqs reports the queue depth, for tests.
func (d *DTU) PendingCoreReqs() int { return d.coreReqN }
