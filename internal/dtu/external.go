package dtu

import (
	"m3v/internal/noc"
	"m3v/internal/sim"
)

// This file implements the external interface: endpoint configuration by the
// controller (paper §3.4). Only the controller holds the ability to send
// external requests, which is what makes communication-channel establishment
// a controller privilege. The controller configures its own DTU directly
// (ConfigureLocal) and remote DTUs via NoC requests (ConfigureRemote).

// extReqBytes approximates the wire size of one endpoint configuration.
const extReqBytes = 32

// ConfigureLocal installs an endpoint configuration on this DTU without NoC
// traffic. Used by the controller for its own DTU and by the platform setup.
func (d *DTU) ConfigureLocal(ep EpID, conf Endpoint) error {
	if ep < 0 || int(ep) >= NumEPs {
		return ErrInvalidArgs
	}
	if conf.Kind == EpReceive && conf.slots == nil {
		conf.slots = make([]recvSlot, conf.Slots)
	}
	d.eps[ep] = conf
	return nil
}

// InvalidateLocal clears an endpoint on this DTU. Pending messages in a
// receive endpoint are dropped; in-flight senders will see ErrNoRecipient.
func (d *DTU) InvalidateLocal(ep EpID) error {
	if ep < 0 || int(ep) >= NumEPs {
		return ErrInvalidArgs
	}
	d.eps[ep] = Endpoint{}
	return nil
}

// ConfigureRemote sends an external configuration request to the DTU on the
// given tile and blocks until it is acknowledged. Must be called from the
// controller's process.
func (d *DTU) ConfigureRemote(p *sim.Proc, tile noc.TileID, ep EpID, conf Endpoint) error {
	c := d.newCmd(p, opConfig, tile, extReqBytes)
	c.ep, c.conf = ep, conf
	err := c.issue()
	d.releaseCmd(c)
	return err
}

// InvalidateRemote clears an endpoint on a remote DTU.
func (d *DTU) InvalidateRemote(p *sim.Proc, tile noc.TileID, ep EpID) error {
	c := d.newCmd(p, opInvalidate, tile, extReqBytes)
	c.ep = ep
	err := c.issue()
	d.releaseCmd(c)
	return err
}

// ReadEpsRemote fetches count endpoint registers starting at first from a
// remote DTU into buf, which it returns resliced (and grown if too small).
// The M³x controller uses this to save DTU state during a remote context
// switch, passing the same buffer every time.
func (d *DTU) ReadEpsRemote(p *sim.Proc, tile noc.TileID, first, count int, buf []Endpoint) []Endpoint {
	c := d.newCmd(p, opReadEps, tile, extReqBytes)
	c.first, c.n, c.eps = first, count, buf
	c.issue()
	eps := c.eps
	d.releaseCmd(c)
	return eps
}

// WriteEpsRemote bulk-writes endpoint state to a remote DTU. The M³x
// controller uses it to restore an activity's saved DTU state during a
// remote context switch; the transfer size models the real cost. The
// remote DTU has consumed eps when this returns.
func (d *DTU) WriteEpsRemote(p *sim.Proc, tile noc.TileID, eps []EpConf) {
	size := extReqBytes * len(eps)
	for _, ec := range eps {
		// Buffered messages travel with the state.
		for i := range ec.Conf.slots {
			if ec.Conf.occupied&(1<<uint(i)) != 0 {
				size += headerBytes + len(ec.Conf.slots[i].msg.Data)
			}
		}
	}
	c := d.newCmd(p, opWriteEps, tile, size)
	c.confs = eps
	c.issue()
	d.releaseCmd(c)
}

// serveReadEps copies the requested registers into the requester's buffer
// now, at the request's arrival, and answers after the processing delay.
func (d *DTU) serveReadEps(src noc.TileID, c *cmd) {
	first, count := c.first, c.n
	if first < 0 {
		first = 0
	}
	if first+count > NumEPs {
		count = NumEPs - first
	}
	c.eps = append(c.eps[:0], d.eps[first:first+count]...)
	d.answer(d.costs.Proc, respAnswer, src, extReqBytes*count, c, nil)
}

// SetCurAct initializes CUR_ACT during platform boot (before TileMux runs).
// It is not part of any hardware interface.
func (d *DTU) SetCurAct(act ActID) { d.curAct = act }

// ResetCur installs a current activity together with its unread-message
// count. The M³x RCTMux uses it after a restore, where the count is
// recomputed from the restored receive endpoints.
func (d *DTU) ResetCur(act ActID, msgs int) {
	d.curAct = act
	d.curMsgs = msgs
}

// UnreadOf sums the unread messages across all receive endpoints owned by
// the given activity (RCTMux restore path).
func (d *DTU) UnreadOf(act ActID) int {
	n := 0
	for i := range d.eps {
		e := &d.eps[i]
		if e.Kind == EpReceive && e.Act == act {
			n += e.UnreadCount()
		}
	}
	return n
}
