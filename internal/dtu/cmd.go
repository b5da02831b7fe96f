package dtu

import (
	"m3v/internal/noc"
	"m3v/internal/sim"
)

// This file holds the DTU's per-command state: pooled records in place of
// per-message closures, much like a hardware DTU keeps each command's
// state in fixed registers. A cmd is the requester side of one blocking
// command that crosses the NoC; a resp is one deferred action on the
// serving side (a delivery ack, a wakeup notification, a credit return, or
// the answer to a memory or external request). Both cache their event
// callbacks as method values once per record, so a steady-state command
// schedules its events without allocating. See DESIGN.md §3 for who
// returns a record to its pool and when.

// cmdOp selects what a cmd asks of the destination DTU.
type cmdOp uint8

const (
	opMsg        cmdOp = iota // SEND/REPLY/SendRaw: payload is &c.msg
	opRead                    // READ on a memory tile
	opWrite                   // WRITE on a memory tile
	opConfig                  // external: configure one endpoint
	opInvalidate              // external: invalidate one endpoint
	opReadEps                 // external: read endpoint registers
	opWriteEps                // external: bulk-write endpoint state
)

// cmd is the requester-side record of one blocking command. The issuing
// process parks until the destination's answer (a *resp) completes it; it
// then copies out the result and releases the record. The NoC never loses a
// packet, so every issued command is answered.
// For opMsg the packet payload is &c.msg; for every other op it is c itself.
type cmd struct {
	d    *DTU
	p    *sim.Proc
	op   cmdOp
	dst  noc.TileID
	size int // request bytes on the wire

	msg msgPacket // opMsg

	off  uint64 // opRead/opWrite: offset on the memory tile
	n    int    // opRead: bytes to read
	data []byte // opRead: the bytes read, handed to the caller
	buf  []byte // opWrite: the DTU's copy of the written bytes, reused

	ep    EpID       // opConfig/opInvalidate
	conf  Endpoint   // opConfig
	first int        // opReadEps: first register; len(eps) is the count
	eps   []Endpoint // opReadEps: requester-owned, filled by the remote DTU
	confs []EpConf   // opWriteEps

	done bool
	err  error
	send func() // cached c.transmit
}

// newCmd takes a command record from the pool (or makes one).
//
//m3v:noalloc
func (d *DTU) newCmd(p *sim.Proc, op cmdOp, dst noc.TileID, size int) *cmd {
	var c *cmd
	if n := len(d.freeCmds) - 1; n >= 0 {
		c = d.freeCmds[n]
		d.freeCmds[n] = nil
		d.freeCmds = d.freeCmds[:n]
	} else {
		//m3vlint:ignore noalloc pool miss: the pool grows lazily to the peak number of commands in flight on this DTU
		c = &cmd{d: d}
		c.send = c.transmit
	}
	c.p, c.op, c.dst, c.size = p, op, dst, size
	return c
}

// releaseCmd returns a completed record to the pool, dropping its
// references to the issuer and to caller-visible data. The write buffer
// stays with the record.
//
//m3v:noalloc
func (d *DTU) releaseCmd(c *cmd) {
	c.p = nil
	c.msg = msgPacket{}
	c.data = nil
	c.conf = Endpoint{}
	c.eps = nil
	c.confs = nil
	c.done, c.err = false, nil
	//m3vlint:ignore noalloc pool growth is bounded by the peak number of commands in flight
	d.freeCmds = append(d.freeCmds, c)
}

// issue schedules the request packet after the DTU's processing delay and
// parks the issuer until the command completes. The caller releases c.
func (c *cmd) issue() error {
	c.d.eng.After(procTime, c.send)
	for !c.done {
		c.p.Park()
	}
	return c.err
}

// transmit puts the request on the NoC.
func (c *cmd) transmit() {
	d := c.d
	var np *noc.Packet
	if c.op == opMsg {
		np = d.net.NewPacket(d.tile, c.dst, c.size, &c.msg)
		np.Flow = c.msg.Msg.Flow
	} else {
		np = d.net.NewPacket(d.tile, c.dst, c.size, c)
	}
	d.net.Send(np)
}

// complete records the command's outcome and wakes the issuer.
func (c *cmd) complete(err error) {
	c.err = err
	c.done = true
	c.p.Wake()
}

// respOp selects a resp's deferred action.
type respOp uint8

const (
	respAnswer   respOp = iota // send the answer packet completing c
	respMemRead                // read DRAM, then answer with the data
	respMemWrite               // write DRAM, then answer
	respArrived                // call OnMsgArrived(act)
	respCredit                 // return a credit to send endpoint ep at to
)

// resp is a serving-side record: one deferred action of this DTU. For the
// answering ops the record itself travels as the answer packet's payload
// and goes back to its owner's pool when the requester's DTU consumes it.
type resp struct {
	d    *DTU
	op   respOp
	to   noc.TileID // requester tile (answers, credits)
	size int        // answer bytes on the wire
	c    *cmd       // the requester's command (answers)
	err  error      // the command's outcome (answers)
	act  ActID      // respArrived
	ep   EpID       // respCredit
	fire func()     // cached r.run
}

// newResp takes a serving-side record from the pool (or makes one).
//
//m3v:noalloc
func (d *DTU) newResp(op respOp) *resp {
	var r *resp
	if n := len(d.freeResps) - 1; n >= 0 {
		r = d.freeResps[n]
		d.freeResps[n] = nil
		d.freeResps = d.freeResps[:n]
	} else {
		//m3vlint:ignore noalloc pool miss: the pool grows lazily to the peak number of deferred actions on this DTU
		r = &resp{d: d}
		r.fire = r.run
	}
	r.op = op
	return r
}

// releaseResp returns a record to its owner's pool.
//
//m3v:noalloc
func (d *DTU) releaseResp(r *resp) {
	r.c, r.err = nil, nil
	//m3vlint:ignore noalloc pool growth is bounded by the peak number of deferred actions
	d.freeResps = append(d.freeResps, r)
}

// answer schedules an answer to c after delay, sent back to tile to.
func (d *DTU) answer(delay sim.Time, op respOp, to noc.TileID, size int, c *cmd, err error) {
	r := d.newResp(op)
	r.to, r.size, r.c, r.err = to, size, c, err
	d.eng.After(delay, r.fire)
}

// run executes the deferred action when its event fires.
func (r *resp) run() {
	d := r.d
	switch r.op {
	case respArrived:
		act := r.act
		d.releaseResp(r)
		d.OnMsgArrived(act)
		return
	case respCredit:
		to, ep := r.to, r.ep
		d.releaseResp(r)
		d.net.Send(d.net.NewPacket(d.tile, to, headerBytes, creditPacket{DstEp: ep}))
		return
	case respMemRead:
		r.c.data = d.mem.ReadAt(r.c.off, r.c.n)
		r.size = headerBytes + len(r.c.data)
	case respMemWrite:
		d.mem.WriteAt(r.c.off, r.c.buf)
	}
	d.net.Send(d.net.NewPacket(d.tile, r.to, r.size, r))
}

// arrived completes the requester's command when the answer packet reaches
// its DTU.
func (r *resp) arrived() {
	c, err := r.c, r.err
	r.d.releaseResp(r)
	c.complete(err)
}
