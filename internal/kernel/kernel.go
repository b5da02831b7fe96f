// Package kernel implements the M³v communication controller (paper §3.3).
// The controller is the only component allowed to configure DTU endpoints
// and thereby establish communication channels; activities drive it through
// system calls delivered as DTU messages, access-controlled by
// capabilities. It also sends requests to the TileMux instances (create,
// start, kill activities; map pages) and receives their exit notifications.
//
// The controller is deliberately single-threaded: it is one activity on a
// dedicated controller tile. On M³v it is rarely involved at runtime; on
// M³x (internal/m3x) this same serialization is the scalability bottleneck
// the paper measures in Figure 9.
package kernel

import (
	"errors"
	"fmt"

	"m3v/internal/cap"
	"m3v/internal/dtu"
	"m3v/internal/mem"
	"m3v/internal/noc"
	"m3v/internal/proto"
	"m3v/internal/sim"
	"m3v/internal/trace"
)

// Well-known endpoints on the controller tile.
const (
	// EpSyscall receives system calls from all activities; the message
	// label identifies the calling activity.
	EpSyscall dtu.EpID = 1
	// EpNotify receives TileMux notifications (activity exits).
	EpNotify dtu.EpID = 2
	// EpMuxReply receives replies to the controller's TileMux requests.
	EpMuxReply dtu.EpID = 3
	// epFirstDyn is the first endpoint used for per-tile mux send gates.
	epFirstDyn dtu.EpID = 8
)

// Std endpoints allocated on user tiles.
const (
	// UserEpFirst is the first endpoint on user tiles handed to activities
	// (0-3 are PMP, 4-7 belong to TileMux).
	UserEpFirst dtu.EpID = 8
)

// Costs is the controller's timing model in controller-core cycles.
type Costs struct {
	Syscall int64 // decode + capability checks + bookkeeping per syscall
	Notify  int64 // handling one TileMux notification
}

// DefaultCosts returns the calibrated controller cost model.
func DefaultCosts() Costs {
	return Costs{Syscall: 800, Notify: 300}
}

// TileEntry is the kernel's record of one user tile.
type TileEntry struct {
	ID noc.TileID
	// MuxSgate is the controller-side endpoint for requests to this tile's
	// TileMux (or RCTMux on M³x). Negative if the tile has no multiplexer.
	MuxSgate dtu.EpID
	// NextEp allocates user endpoints on the tile.
	NextEp dtu.EpID
}

// AllocEp hands out the next free endpoint on the tile.
func (t *TileEntry) AllocEp() dtu.EpID {
	ep := t.NextEp
	t.NextEp++
	if int(ep) >= dtu.NumEPs {
		panic(fmt.Sprintf("kernel: tile %d out of endpoints", t.ID))
	}
	return ep
}

// Kernel is the controller instance.
type Kernel struct {
	eng   *sim.Engine
	d     *dtu.DTU
	clock sim.Clock
	costs Costs
	proc  *sim.Proc

	acts    map[uint32]*ActEntry
	nextAct uint32
	tiles   map[noc.TileID]*TileEntry

	services map[string]*SrvObj
	// srvCaps holds the service's receive-gate capability so session send
	// gates can be derived from it (revoking the service kills sessions).
	srvCaps  map[string]*cap.Capability
	nextSess uint64

	// DRAM allocation: one allocator per memory tile.
	dramTiles []noc.TileID
	dramAlloc map[noc.TileID]*mem.Allocator

	bindings map[*cap.Capability]binding

	// OnActExit, if set, is invoked when an exit notification arrives
	// (used by the platform to observe completion).
	OnActExit func(id uint32, code int32)

	// Ext, if set, handles syscalls the base kernel does not know. The M³x
	// baseline uses it for the slow-path Forward call.
	Ext func(p *sim.Proc, caller *ActEntry, op proto.Op, r *proto.Reader, slot int) (resp []byte, deferred, handled bool)

	// OnEpConfigured, if set, observes every endpoint the kernel writes
	// (the M³x driver mirrors the per-tile endpoint tables from it).
	OnEpConfigured func(tile noc.TileID, ep dtu.EpID, conf dtu.Endpoint)

	// ConfigureVia, if set, may take over an endpoint configuration. The
	// M³x driver redirects configurations for non-running activities into
	// their saved DTU state instead of the live tile.
	ConfigureVia func(p *sim.Proc, tile noc.TileID, ep dtu.EpID, conf dtu.Endpoint) (handled bool, err error)

	// PostSyscall, if set, runs after each syscall reply. The M³x driver
	// performs the remote context switches queued by Forward here, after
	// the caller got its answer.
	PostSyscall func(p *sim.Proc)

	// OnActStarting, if set, runs right before an activity is started. The
	// M³x driver restores the activity's saved DTU state if its tile is
	// about to run it for the first time.
	OnActStarting func(p *sim.Proc, act *ActEntry)

	// ReplyFallback, if set, handles syscall replies whose recipient is not
	// running (M³x: the reply is injected into the saved DTU state).
	ReplyFallback func(msg dtu.Message, resp []byte) bool

	// OnIdle, if set, runs whenever the controller is about to idle. The
	// M³x driver performs its time-slice rotations here.
	OnIdle func(p *sim.Proc)

	// rec is the engine's structured event recorder; cSyscalls is the
	// registry counter behind the Syscalls accessor.
	rec       *trace.Recorder
	cSyscalls *trace.Counter
}

// New creates a controller bound to the given (non-virtualized) DTU. The
// caller must configure EpSyscall/EpNotify/EpMuxReply on d before running.
func New(eng *sim.Engine, d *dtu.DTU, clock sim.Clock) *Kernel {
	k := &Kernel{
		eng:       eng,
		d:         d,
		clock:     clock,
		costs:     DefaultCosts(),
		acts:      make(map[uint32]*ActEntry),
		nextAct:   1,
		tiles:     make(map[noc.TileID]*TileEntry),
		services:  make(map[string]*SrvObj),
		srvCaps:   make(map[string]*cap.Capability),
		nextSess:  1,
		dramAlloc: make(map[noc.TileID]*mem.Allocator),
		bindings:  make(map[*cap.Capability]binding),
		rec:       eng.Tracer(),
		cSyscalls: eng.Tracer().Metrics().Counter("kernel.syscalls"),
	}
	d.OnMsgArrived = func(dtu.ActID) {
		if k.proc != nil {
			k.proc.Wake()
		}
	}
	k.proc = eng.Spawn("kernel", k.loop)
	return k
}

// Costs returns the timing model for calibration.
func (k *Kernel) Costs() *Costs { return &k.costs }

// Syscalls reports the number of handled system calls.
func (k *Kernel) Syscalls() int64 { return k.cSyscalls.Value() }

// Clock returns the controller core's clock.
func (k *Kernel) Clock() sim.Clock { return k.clock }

// Proc returns the controller's process (the platform uses it for boot-time
// endpoint configuration in kernel context).
func (k *Kernel) Proc() *sim.Proc { return k.proc }

// DTU returns the controller tile's DTU.
func (k *Kernel) DTU() *dtu.DTU { return k.d }

// RegisterTile tells the kernel about a user tile and the endpoint of the
// controller's send gate towards that tile's multiplexer (-1 if none).
func (k *Kernel) RegisterTile(id noc.TileID, muxSgate dtu.EpID) *TileEntry {
	te := &TileEntry{ID: id, MuxSgate: muxSgate, NextEp: UserEpFirst}
	k.tiles[id] = te
	return te
}

// RegisterDRAM tells the kernel about a memory tile of the given size.
func (k *Kernel) RegisterDRAM(id noc.TileID, size uint64) {
	k.dramTiles = append(k.dramTiles, id)
	k.dramAlloc[id] = mem.NewAllocator(size)
}

// AllocDRAM carves a region out of the first memory tile with space.
func (k *Kernel) AllocDRAM(size uint64) (noc.TileID, uint64, error) {
	for _, t := range k.dramTiles {
		if off, err := k.dramAlloc[t].Alloc(size, dtu.PageSize); err == nil {
			return t, off, nil
		}
	}
	return 0, 0, fmt.Errorf("kernel: out of DRAM (%d bytes)", size)
}

// Act looks up an activity by global id.
func (k *Kernel) Act(id uint32) *ActEntry { return k.acts[id] }

// Tile looks up a tile entry.
func (k *Kernel) Tile(id noc.TileID) *TileEntry { return k.tiles[id] }

// loop is the controller's main loop: handle system calls and TileMux
// notifications as they arrive.
func (k *Kernel) loop(p *sim.Proc) {
	for {
		progress := false
		for k.d.HasUnread(EpSyscall) {
			progress = true
			slot, msg, err := k.d.Fetch(p, EpSyscall)
			if err != nil {
				break
			}
			start := k.eng.Now()
			k.cSyscalls.Inc()
			p.Sleep(k.clock.Cycles(k.costs.Syscall))
			caller := k.acts[uint32(msg.Label)]
			resp, deferred := k.handleSyscall(p, caller, &msg, slot)
			if k.rec.Enabled() {
				if op, _, err := proto.ParseOp(msg.Data); err == nil {
					k.rec.Syscall(int64(start), int64(k.eng.Now()-start),
						int(k.d.Tile()), int64(op), int64(msg.Label))
					// The controller's handling window, on the syscall
					// message's own flow.
					k.rec.EmitSpan(msg.Flow, 0, trace.SpanKernSyscall,
						int64(start), int64(k.eng.Now()), int(k.d.Tile()),
						trace.CompKernel, trace.PathNone, int64(op), int64(msg.Label))
				}
			}
			if deferred {
				continue // reply comes later (e.g. ActivityWait)
			}
			k.reply(p, slot, &msg, resp)
			if k.PostSyscall != nil {
				k.PostSyscall(p)
			}
		}
		for k.d.HasUnread(EpNotify) {
			progress = true
			slot, msg, err := k.d.Fetch(p, EpNotify)
			if err != nil {
				break
			}
			p.Sleep(k.clock.Cycles(k.costs.Notify))
			k.handleNotify(p, msg.Data)
			_ = k.d.Ack(p, EpNotify, slot)
		}
		if !progress {
			if k.OnIdle != nil {
				k.OnIdle(p)
			}
			p.Park()
		}
	}
}

// reply answers a syscall, falling back to saved-state injection when the
// caller is not running (M³x).
func (k *Kernel) reply(p *sim.Proc, slot int, msg *dtu.Message, resp []byte) {
	err := k.d.Reply(p, EpSyscall, slot, resp, 0)
	if err == nil {
		return
	}
	if errors.Is(err, dtu.ErrNoRecipient) && k.ReplyFallback != nil && k.ReplyFallback(*msg, resp) {
		return
	}
	panic(fmt.Sprintf("kernel: syscall reply failed: %v", err))
}

// Poke wakes the controller's process (used for time-slice ticks).
func (k *Kernel) Poke() { k.proc.Wake() }

// handleNotify processes a TileMux notification.
func (k *Kernel) handleNotify(p *sim.Proc, data []byte) {
	op, r, err := proto.ParseOp(data)
	if err != nil || op != proto.OpNotifyExit {
		return
	}
	id := uint32(r.U16())
	code := int32(r.U32())
	act := k.acts[id]
	if act == nil {
		return
	}
	act.Exited = true
	act.ExitCode = code
	for _, w := range act.waiters {
		k.reply(p, w.slot, &w.msg, proto.Resp(proto.EOK, uint64(uint32(code))))
	}
	act.waiters = nil
	if k.OnActExit != nil {
		k.OnActExit(id, code)
	}
}

// MuxRequest sends a request to a tile's multiplexer and waits for the
// reply (exported for the M³x driver).
func (k *Kernel) MuxRequest(p *sim.Proc, tile noc.TileID, req []byte) (proto.ErrCode, *proto.Reader) {
	te := k.tiles[tile]
	if te == nil {
		return proto.ENoTile, nil
	}
	return k.muxRequest(p, te, req)
}

// muxRequest sends a request to a tile's multiplexer and waits for the
// reply. The controller is blocked meanwhile — it is single-threaded.
func (k *Kernel) muxRequest(p *sim.Proc, te *TileEntry, req []byte) (proto.ErrCode, *proto.Reader) {
	if te.MuxSgate < 0 {
		return proto.ENoTile, nil
	}
	err := k.d.Send(p, dtu.SendArgs{Ep: te.MuxSgate, Data: req, ReplyEp: EpMuxReply})
	if err != nil {
		panic(fmt.Sprintf("kernel: mux request to tile %d failed: %v", te.ID, err))
	}
	for !k.d.HasUnread(EpMuxReply) {
		p.Sleep(sim.Microsecond)
	}
	slot, msg, err := k.d.Fetch(p, EpMuxReply)
	if err != nil {
		panic(fmt.Sprintf("kernel: mux reply fetch failed: %v", err))
	}
	defer k.d.Ack(p, EpMuxReply, slot)
	code, r, err := proto.ParseResp(msg.Data)
	if err != nil {
		return proto.EInvalid, nil
	}
	return code, r
}
