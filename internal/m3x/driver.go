package m3x

import (
	"fmt"

	"m3v/internal/activity"
	"m3v/internal/dtu"
	"m3v/internal/kernel"
	"m3v/internal/noc"
	"m3v/internal/proto"
	"m3v/internal/sim"
	"m3v/internal/trace"
)

// DriverCosts is the controller-side cost model of the M³x baseline, in
// controller-core cycles.
type DriverCosts struct {
	Forward int64 // slow-path bookkeeping per forwarded message
	Switch  int64 // scheduling decision + switch bookkeeping
}

// DefaultDriverCosts returns the calibrated controller costs.
func DefaultDriverCosts() DriverCosts {
	return DriverCosts{Forward: 800, Switch: 1500}
}

// Driver is the controller-side half of M³x multiplexing. It hooks into the
// base kernel: it mirrors every endpoint configuration, redirects
// configurations for non-running activities into their saved DTU state,
// handles the slow-path Forward syscall, and performs remote context
// switches (stop -> save EPs -> restore EPs -> resume), all serialized in
// the single-threaded controller — the bottleneck Figure 9 measures.
type Driver struct {
	k     *kernel.Kernel
	clk   sim.Clock
	costs DriverCosts

	// current is the activity each user tile is running (nil = none).
	current map[noc.TileID]uint32
	// saved holds the DTU state of every non-running activity. A restore
	// empties an activity's set but keeps its array for the next save.
	saved map[uint32][]dtu.EpConf
	// live and invalidate are the remote switch's scratch buffers: the
	// stopped activity's endpoint registers as read from its tile, and the
	// list of endpoints to clear there.
	live       []dtu.Endpoint
	invalidate []dtu.EpConf
	// mirror is the controller's copy of every endpoint configuration it
	// ever issued (routing metadata for the slow path).
	mirror map[noc.TileID]map[dtu.EpID]dtu.Endpoint
	// pending are context switches queued during syscall handling, executed
	// after the caller got its reply.
	pending []pendingSwitch

	// started lists all started activities per tile for time-slice rotation;
	// tileOrder keeps the tiles in first-start order so rotation ticks visit
	// them deterministically (map iteration order would vary run to run).
	started   map[noc.TileID][]uint32
	tileOrder []noc.TileID
	// Quantum is the controller's time slice; the controller rotates each
	// multiplexed tile among its activities at this period (M³x: "the
	// controller is responsible for scheduling decisions").
	Quantum sim.Time
	tickDue bool
	eng     *sim.Engine
	rec     *trace.Recorder

	// Forwards and Switches count slow-path events, for reports.
	Forwards int64
	Switches int64
}

type pendingSwitch struct {
	tile noc.TileID
	act  uint32
	// flow is the trace flow of the message whose delivery queued this
	// switch (0 when untraced or for time-slice rotations).
	flow uint64
}

// NewDriver wires an M³x driver into the kernel.
func NewDriver(eng *sim.Engine, k *kernel.Kernel) *Driver {
	d := &Driver{
		k:       k,
		clk:     k.Clock(),
		eng:     eng,
		costs:   DefaultDriverCosts(),
		current: make(map[noc.TileID]uint32),
		saved:   make(map[uint32][]dtu.EpConf),
		mirror:  make(map[noc.TileID]map[dtu.EpID]dtu.Endpoint),
		started: make(map[noc.TileID][]uint32),
		Quantum: 2 * sim.Millisecond,
		rec:     eng.Tracer(),
	}
	k.OnEpConfigured = d.onEpConfigured
	k.ConfigureVia = d.configureVia
	k.Ext = d.handleSyscall
	k.PostSyscall = d.postSyscall
	k.OnActStarting = d.onActStarting
	k.ReplyFallback = d.replyFallback
	k.OnIdle = d.onIdle
	d.armTick()
	return d
}

func (d *Driver) armTick() {
	d.eng.After(d.Quantum, func() {
		d.tickDue = true
		d.k.Poke()
		d.armTick()
	})
}

// onIdle rotates multiplexed tiles round robin when a time-slice tick is
// due. This is the controller-driven preemption of M³x.
func (d *Driver) onIdle(p *sim.Proc) {
	if !d.tickDue {
		return
	}
	d.tickDue = false
	for _, tile := range d.tileOrder {
		acts := d.started[tile]
		live := acts[:0]
		for _, id := range acts {
			if a := d.k.Act(id); a != nil && !a.Exited {
				live = append(live, id)
			}
		}
		d.started[tile] = live
		if len(live) < 2 {
			continue
		}
		// Rotate to the activity after the current one.
		cur := d.current[tile]
		next := live[0]
		for i, id := range live {
			if id == cur {
				next = live[(i+1)%len(live)]
				break
			}
		}
		if next != cur {
			d.performSwitch(p, tile, next, 0)
		}
	}
}

// replyFallback injects a syscall reply into the saved DTU state of a
// stopped caller and restores the piggybacked send credit.
func (d *Driver) replyFallback(msg dtu.Message, resp []byte) bool {
	owner := uint32(msg.SndAct)
	rg := d.savedEp(owner, msg.ReplyEp)
	if rg == nil {
		return false
	}
	// The controller's failed Reply command minted the reply's flow; the
	// injected message keeps it so the recipient's fetch still links up.
	flow := d.k.DTU().LastFlow()
	ok := rg.InjectMessage(dtu.Message{
		Label:   msg.ReplyLabel,
		SndTile: d.k.DTU().Tile(),
		ReplyEp: -1,
		CrdEp:   -1,
		Flow:    flow,
		Data:    resp,
	})
	if !ok {
		return false
	}
	if msg.CrdEp >= 0 {
		if sg := d.savedEp(owner, msg.CrdEp); sg != nil && sg.Credits < sg.MaxCredits {
			sg.Credits++
		}
	}
	// Saved-state injection is controller-mediated delivery: mark the reply
	// flow slow so it resolves to a verdict.
	now := int64(d.eng.Now())
	d.rec.EmitSpan(flow, 0, trace.SpanKernForward, now, now,
		int(d.k.DTU().Tile()), trace.CompKernel, trace.PathSlow, 1, 1)
	return true
}

// onActStarting records the activity for rotation, admits the first started
// activity of a tile as its current one, and pushes its saved endpoint state
// (configured while it was not running) onto the tile.
func (d *Driver) onActStarting(p *sim.Proc, act *kernel.ActEntry) {
	if _, seen := d.started[act.Tile]; !seen {
		d.tileOrder = append(d.tileOrder, act.Tile)
	}
	d.started[act.Tile] = append(d.started[act.Tile], act.ID)
	if d.current[act.Tile] != 0 {
		return
	}
	d.current[act.Tile] = act.ID
	d.restoreSaved(p, act.Tile, act.ID)
}

// restoreSaved pushes an activity's saved endpoints onto its tile and
// empties the set, keeping its array for the next save.
func (d *Driver) restoreSaved(p *sim.Proc, tile noc.TileID, act uint32) {
	set := d.saved[act]
	if len(set) == 0 {
		return
	}
	d.k.DTU().WriteEpsRemote(p, tile, set)
	clear(set)
	d.saved[act] = set[:0]
}

// Costs returns the timing model.
func (d *Driver) Costs() *DriverCosts { return &d.costs }

func (d *Driver) tileMirror(tile noc.TileID) map[dtu.EpID]dtu.Endpoint {
	m := d.mirror[tile]
	if m == nil {
		m = make(map[dtu.EpID]dtu.Endpoint)
		d.mirror[tile] = m
	}
	return m
}

func (d *Driver) onEpConfigured(tile noc.TileID, ep dtu.EpID, conf dtu.Endpoint) {
	d.tileMirror(tile)[ep] = conf
}

// configureVia redirects endpoint configurations for activities that are not
// current on their (multiplexed) tile into their saved state.
func (d *Driver) configureVia(p *sim.Proc, tile noc.TileID, ep dtu.EpID, conf dtu.Endpoint) (bool, error) {
	act := uint32(conf.Act)
	if conf.Act == dtu.ActInvalid || conf.Act == dtu.ActTileMux {
		return false, nil // controller/mux endpoints always live
	}
	te := d.k.Tile(tile)
	if te == nil || te.MuxSgate < 0 {
		return false, nil // not a multiplexed user tile
	}
	if d.current[tile] == act {
		return false, nil // live configuration
	}
	// The activity is not running: configure into its saved DTU state.
	d.tileMirror(tile)[ep] = conf
	d.setSaved(act, ep, conf)
	return true, nil
}

// setSaved installs or replaces one endpoint in an activity's saved set.
func (d *Driver) setSaved(act uint32, ep dtu.EpID, conf dtu.Endpoint) {
	set := d.saved[act]
	for i := range set {
		if set[i].Ep == ep {
			set[i].Conf = conf
			return
		}
	}
	d.saved[act] = append(set, dtu.EpConf{Ep: ep, Conf: conf})
}

// savedEp returns a pointer to a saved endpoint of an activity.
func (d *Driver) savedEp(act uint32, ep dtu.EpID) *dtu.Endpoint {
	set := d.saved[act]
	for i := range set {
		if set[i].Ep == ep {
			return &set[i].Conf
		}
	}
	return nil
}

// handleSyscall implements the Forward slow-path syscall (paper §2.2: "the
// slow path forwards the message to the recipient via the controller, which
// first schedules the recipient and delivers the message afterwards").
func (d *Driver) handleSyscall(p *sim.Proc, caller *kernel.ActEntry, op proto.Op, r *proto.Reader, slot int) ([]byte, bool, bool) {
	if op != proto.OpForward {
		return nil, false, false
	}
	mode := r.U8()
	// The flow of the failed fast-path attempt travels in-band: the slow
	// path's spans join the same flow as the sender's original command.
	// Always present on the wire (0 when untraced) so traced and untraced
	// runs time identically.
	flow := r.U64()
	d.Forwards++
	start := d.eng.Now()
	p.Sleep(d.clk.Cycles(d.costs.Forward))
	if mode == 0 {
		// Request leg: routed through the sender's send gate.
		ep := dtu.EpID(r.U32())
		replyEp := dtu.EpID(int32(r.U32()))
		replyLabel := r.U64()
		data := r.BytesField()
		if r.Err() != nil {
			return proto.Resp(proto.EInvalid), false, true
		}
		sg, ok := d.tileMirror(caller.Tile)[ep]
		if !ok || sg.Kind != dtu.EpSend {
			return proto.Resp(proto.EInvalid), false, true
		}
		msg := dtu.Message{
			Label:      sg.Label,
			SndTile:    caller.Tile,
			SndAct:     caller.Local,
			ReplyEp:    replyEp,
			CrdEp:      -1,
			ReplyLabel: replyLabel,
			Flow:       flow,
			Data:       data,
		}
		span := d.rec.BeginSpan(flow, 0, trace.SpanKernForward,
			int64(start), int(d.k.DTU().Tile()), trace.CompKernel)
		queued := len(d.pending)
		resp := d.deliverSlow(p, sg.TgtTile, sg.TgtEp, msg, -1)
		d.rec.EndSpanArgs(span, int64(d.eng.Now()), trace.PathSlow,
			0, int64(len(d.pending)-queued))
		return resp, false, true
	}
	// Reply leg: routed by the original message's reply coordinates.
	tile := noc.TileID(r.U32())
	ep := dtu.EpID(r.U32())
	label := r.U64()
	crdEp := dtu.EpID(int32(r.U32()))
	data := r.BytesField()
	if r.Err() != nil {
		return proto.Resp(proto.EInvalid), false, true
	}
	msg := dtu.Message{
		Label:   label,
		SndTile: caller.Tile,
		SndAct:  caller.Local,
		ReplyEp: -1,
		CrdEp:   -1,
		Flow:    flow,
		Data:    data,
	}
	span := d.rec.BeginSpan(flow, 0, trace.SpanKernForward,
		int64(start), int(d.k.DTU().Tile()), trace.CompKernel)
	queued := len(d.pending)
	resp := d.deliverSlow(p, tile, ep, msg, crdEp)
	d.rec.EndSpanArgs(span, int64(d.eng.Now()), trace.PathSlow,
		1, int64(len(d.pending)-queued))
	return resp, false, true
}

// deliverSlow delivers a message on behalf of a sender: directly if the
// recipient is running, into its saved DTU state otherwise (scheduling it
// afterwards). crdEp, if >= 0, is a send-gate credit of the *recipient* to
// restore (the piggybacked credit of a replied-to request).
func (d *Driver) deliverSlow(p *sim.Proc, tile noc.TileID, ep dtu.EpID, msg dtu.Message, crdEp dtu.EpID) []byte {
	rg, ok := d.tileMirror(tile)[ep]
	if !ok || rg.Kind != dtu.EpReceive {
		return proto.Resp(proto.ENotFound)
	}
	owner := uint32(rg.Act)
	if d.current[tile] == owner {
		// The recipient runs: the controller delivers the message itself.
		if err := d.k.DTU().SendRaw(p, tile, ep, msg, crdEp); err != nil {
			return proto.Resp(proto.EUnreachable)
		}
		return proto.Resp(proto.EOK, 0)
	}
	saved := d.savedEp(owner, ep)
	if saved == nil {
		return proto.Resp(proto.ENotFound)
	}
	if !saved.InjectMessage(msg) {
		return proto.Resp(proto.ENoSpace) // saved buffer full: retry later
	}
	if crdEp >= 0 {
		if sg := d.savedEp(owner, crdEp); sg != nil && sg.Credits < sg.MaxCredits {
			sg.Credits++
		}
	}
	// Schedule the recipient after the caller got its reply.
	d.pending = append(d.pending, pendingSwitch{tile: tile, act: owner, flow: msg.Flow})
	return proto.Resp(proto.EOK, 0)
}

// postSyscall executes queued context switches.
func (d *Driver) postSyscall(p *sim.Proc) {
	for len(d.pending) > 0 {
		sw := d.pending[0]
		d.pending = d.pending[1:]
		d.performSwitch(p, sw.tile, sw.act, sw.flow)
	}
}

// performSwitch runs the full M³x remote context switch: stop the current
// activity, pull its DTU state over the NoC, push the target's saved state
// back, and resume. Everything happens inline in the single controller
// process.
func (d *Driver) performSwitch(p *sim.Proc, tile noc.TileID, to uint32, flow uint64) {
	cur := d.current[tile]
	if cur == to {
		return
	}
	d.Switches++
	start := d.eng.Now()
	p.Sleep(d.clk.Cycles(d.costs.Switch))
	k := d.k
	// 1. Stop whatever runs on the tile (reply arrives once it parked).
	if code, _ := k.MuxRequest(p, tile, proto.NewWriter(proto.OpMuxSwitch).Done()); code != proto.EOK {
		panic(fmt.Sprintf("m3x: switch request failed: %d", code))
	}
	te := k.Tile(tile)
	// 2. Save the stopped activity's endpoints.
	if cur != 0 {
		if curAct := k.Act(cur); curAct != nil {
			first, count := int(kernel.UserEpFirst), int(te.NextEp-kernel.UserEpFirst)
			d.saveEps(p, tile, cur, curAct.Local, first, count)
		}
	}
	// 3. Restore the target's saved endpoints.
	d.restoreSaved(p, tile, to)
	// 4. Resume.
	toAct := k.Act(to)
	req := proto.NewWriter(proto.OpMuxResume).U16(uint16(toAct.Local)).Done()
	if code, _ := k.MuxRequest(p, tile, req); code != proto.EOK {
		panic(fmt.Sprintf("m3x: resume failed: %d", code))
	}
	d.current[tile] = to
	d.rec.EmitSpan(flow, 0, trace.SpanKernSwitch, int64(start), int64(d.eng.Now()),
		int(d.k.DTU().Tile()), trace.CompKernel, trace.PathNone, int64(tile), int64(to))
}

// saveEps pulls endpoint registers [first, first+count) of a tile over the
// NoC, moves those owned by activity act (tile-local id local) into its
// saved set, and invalidates them on the tile.
func (d *Driver) saveEps(p *sim.Proc, tile noc.TileID, act uint32, local dtu.ActID, first, count int) {
	if count <= 0 {
		return
	}
	d.live = d.k.DTU().ReadEpsRemote(p, tile, first, count, d.live)
	d.invalidate = d.invalidate[:0]
	for i := range d.live {
		if conf := &d.live[i]; conf.Act == local {
			epID := dtu.EpID(first + i)
			d.setSaved(act, epID, *conf)
			d.invalidate = append(d.invalidate, dtu.EpConf{Ep: epID})
		}
	}
	if len(d.invalidate) > 0 {
		d.k.DTU().WriteEpsRemote(p, tile, d.invalidate)
	}
}

// forwardRetryMax bounds the resends of a Forward syscall whose delivery
// failed transiently before the sender gives up and surfaces the error.
const forwardRetryMax = 12

// forwardSyscall issues one OpForward request, resending on transient
// delivery failures: ENoSpace (the recipient's saved buffer is full —
// "retry later") and EUnreachable (the controller's direct delivery leg
// was dropped on the NoC). The backoff doubles per attempt by burning
// core cycles, so a dropped forward leg recovers in bounded sim-time
// instead of surfacing an error to the workload.
func forwardSyscall(a *activity.Activity, req []byte) error {
	for attempt := 0; ; attempt++ {
		code, _, err := a.Syscall(req)
		if err != nil {
			return err
		}
		if (code != proto.ENoSpace && code != proto.EUnreachable) || attempt >= forwardRetryMax {
			return code.Err()
		}
		a.Compute(1000 << uint(min(attempt, 6)))
	}
}

// SlowSend is the activity-side slow path for the request leg: on
// ErrNoRecipient the sender forwards the message through the controller
// (install as Activity.SlowSend).
func SlowSend(a *activity.Activity, args dtu.SendArgs) error {
	req := proto.NewWriter(proto.OpForward).
		U8(0).
		U64(a.D.LastFlow()).
		U32(uint32(args.Ep)).
		U32(uint32(int32(args.ReplyEp))).
		U64(args.ReplyLabel).
		Bytes(args.Data).
		Done()
	return forwardSyscall(a, req)
}

// SlowReply is the activity-side slow path for the reply leg (install as
// Activity.SlowReply).
func SlowReply(a *activity.Activity, orig dtu.Message, data []byte) error {
	req := proto.NewWriter(proto.OpForward).
		U8(1).
		U64(a.D.LastFlow()).
		U32(uint32(orig.SndTile)).
		U32(uint32(orig.ReplyEp)).
		U64(orig.ReplyLabel).
		U32(uint32(int32(orig.CrdEp))).
		Bytes(data).
		Done()
	return forwardSyscall(a, req)
}
