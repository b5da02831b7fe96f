package trace

import "hash/fnv"

// This file implements causal spans: begin/end-stamped intervals threaded
// along a message's path through the model. Every message minted at a
// sending endpoint receives a deterministic flow ID (a per-recorder
// sequence number, so two runs of a deterministic model produce identical
// IDs); the components it traverses emit spans tagged with that flow, and
// the analysis layer (flows.go, cmd/m3vtrace) reassembles them into
// per-message latency breakdowns and critical-path reports.
//
// Like the event emit helpers, every span helper is nil-recorder-safe and
// costs only the enabled-check when tracing is off: flow 0 is the "not
// traced" flow, MintFlow returns it whenever the stream is disabled, and
// every emit helper drops spans of flow 0, so disabled runs never touch
// the span buffer.

// SpanName identifies a span type. Names follow the component.noun
// convention of the metrics registry; the spanname analyzer enforces it
// on the spanNames table below.
type SpanName uint8

// Span names, in stable order (part of the trace format).
const (
	// SpanNone is the unnamed sentinel; no span carries it.
	SpanNone SpanName = iota
	// SpanDTUSend covers a SEND command at the sending DTU, from command
	// issue to the remote acknowledgement.
	// Arg0 = send endpoint, Arg1 = error code (0 = success).
	SpanDTUSend
	// SpanDTUReply covers a REPLY command at the replying DTU.
	// Arg0 = receive endpoint, Arg1 = error code.
	SpanDTUReply
	// SpanDTUTLB is the command's TLB check (instant).
	// Arg0 = 1 hit / 0 miss, Arg1 = virtual address.
	SpanDTUTLB
	// SpanDTUDeliver is the receiving DTU storing (or rejecting) the
	// message (instant). Path is PathFast when the message was stored
	// directly. Arg0 = destination endpoint, Arg1 = delivery status
	// (0 = stored, 1 = no recipient, 2 = NACKed).
	SpanDTUDeliver
	// SpanDTUCoreReq covers a core request from raise (message stored for
	// a non-current activity) to TileMux's acknowledgement.
	// Arg0 = target activity id, Arg1 = queue depth after the drain.
	SpanDTUCoreReq
	// SpanDTUFetch covers the FETCH_MSG command that consumed the
	// message at the receiver. Arg0 = receive endpoint, Arg1 = bytes.
	SpanDTUFetch
	// SpanNoCXfer covers one NoC delivery attempt from transmit to
	// delivery. Arg0 = attempt number (0-based), Arg1 = 1 if delivered,
	// 0 if NACKed.
	SpanNoCXfer
	// SpanNoCQueue is the router-contention share of a transfer (child of
	// SpanNoCXfer). Arg0 = ingress router.
	SpanNoCQueue
	// SpanMuxWakeup covers the context switch that brought the message's
	// blocked recipient back onto the core.
	// Arg0 = previous activity id, Arg1 = woken activity id.
	SpanMuxWakeup
	// SpanKernSyscall covers the controller handling the syscall message
	// of this flow. Arg0 = protocol op, Arg1 = calling activity id.
	SpanKernSyscall
	// SpanKernForward covers the M³x controller forwarding a slow-path
	// message (paper §2.2); it marks the flow PathSlow.
	// Arg0 = forward mode (0 = request leg, 1 = reply leg),
	// Arg1 = 1 if delivered into saved state, 0 if sent directly.
	SpanKernForward
	// SpanKernSwitch covers the remote context switch the M³x controller
	// performed to schedule the flow's recipient.
	// Arg0 = tile, Arg1 = target activity (global id).
	SpanKernSwitch
	// SpanFaultDrop covers an injected NoC packet drop and the retransmit
	// backoff it forced: [drop, retransmit). Arg0 = attempt number.
	SpanFaultDrop
	// SpanFaultDelay is an injected NoC latency penalty; the interval is
	// the extra wire time added. Arg0 = extra picoseconds.
	SpanFaultDelay
	// SpanFaultDup marks an injected duplicate NoC packet (instant at the
	// transmit edge). The ghost copy is filtered at the destination.
	SpanFaultDup
	// SpanFaultCmdFail marks an injected DTU command failure (instant).
	// Arg0 = 0 for send, 1 for reply.
	SpanFaultCmdFail
	// SpanFaultRetry covers one retry backoff sleep a DTU command wrapper
	// took after a transient failure. Arg0 = attempt number.
	SpanFaultRetry
	// SpanFaultStall covers an injected TileMux wakeup stall: the interval
	// by which the scheduler poke was deferred.
	SpanFaultStall
	numSpanNames
)

var spanNames = [numSpanNames]string{
	SpanNone:         "",
	SpanDTUSend:      "dtu.send",
	SpanDTUReply:     "dtu.reply",
	SpanDTUTLB:       "dtu.tlb",
	SpanDTUDeliver:   "dtu.deliver",
	SpanDTUCoreReq:   "dtu.core_req",
	SpanDTUFetch:     "dtu.fetch",
	SpanNoCXfer:      "noc.xfer",
	SpanNoCQueue:     "noc.queue",
	SpanMuxWakeup:    "tilemux.wakeup",
	SpanKernSyscall:  "kernel.syscall",
	SpanKernForward:  "kernel.forward",
	SpanKernSwitch:   "kernel.remote_switch",
	SpanFaultDrop:    "fault.drop",
	SpanFaultDelay:   "fault.delay",
	SpanFaultDup:     "fault.dup",
	SpanFaultCmdFail: "fault.cmd_fail",
	SpanFaultRetry:   "fault.retry",
	SpanFaultStall:   "fault.stall",
}

// String returns the span's component.noun name.
func (s SpanName) String() string {
	if int(s) < len(spanNames) {
		return spanNames[s]
	}
	return "?"
}

// Path is a span's fast/slow-path attribution. A flow's verdict is the
// strongest mark of any of its spans: PathSlow wins over PathFast, because
// the M³x controller's final delivery of a forwarded message re-uses the
// regular (fast) store at the receiving DTU.
type Path uint8

// Path attributions.
const (
	// PathNone: the span does not determine the flow's path.
	PathNone Path = iota
	// PathFast: a direct DTU delivery (M³v always; M³x when the recipient
	// is current).
	PathFast
	// PathSlow: the message detoured through the M³x controller.
	PathSlow
	numPaths
)

var pathNames = [numPaths]string{PathNone: "", PathFast: "fast", PathSlow: "slow"}

// String returns "fast", "slow", or "" for PathNone.
func (p Path) String() string {
	if int(p) < len(pathNames) {
		return pathNames[p]
	}
	return "?"
}

// SpanRef refers to a recorded span (its 1-based position in the span
// stream). The zero ref is "no span": ending or parenting on it is a
// no-op, so refs can be threaded unconditionally through disabled runs.
// Refs are invalidated by Reset.
type SpanRef int32

// Span is one recorded interval of a flow. All fields are plain scalars so
// a span stream can be hashed and compared bit-for-bit across runs.
type Span struct {
	// Flow is the message's flow ID (never 0 in a recorded span).
	Flow uint64
	// Parent refers to the enclosing span, or 0 for a flow-level root.
	// Flows form forests: receive-side spans (core_req, wakeup, fetch)
	// are roots of their own, since they outlive the sender's command.
	Parent SpanRef
	// At/End are begin and end timestamps in picoseconds. End is -1 while
	// the span is open.
	At, End int64
	// Tile is the tile the span is attributed to.
	Tile int32
	// Comp is the emitting component.
	Comp Component
	// Name selects the interpretation of the Arg fields.
	Name SpanName
	// Path is the span's fast/slow mark (PathNone for most spans).
	Path Path
	// Arg0/Arg1 are name-specific payload values.
	Arg0, Arg1 int64
}

// Dur reports the span's duration, or 0 while it is open.
func (s *Span) Dur() int64 {
	if s.End < s.At {
		return 0
	}
	return s.End - s.At
}

// MintFlow returns the next deterministic flow ID, or 0 (the untraced
// flow) when the recorder is nil or disabled. IDs are a per-recorder
// engine-ordered sequence, never derived from pointers or map order.
//
//m3v:noalloc
func (r *Recorder) MintFlow() uint64 {
	if r == nil || !r.enabled {
		return 0
	}
	r.nextFlow++
	return r.nextFlow
}

// BeginSpan opens a span on the given flow and returns its ref. It returns
// 0 (a no-op ref) when the recorder is nil or disabled or the flow is the
// untraced flow 0.
//
//m3v:noalloc
func (r *Recorder) BeginSpan(flow uint64, parent SpanRef, name SpanName, at int64, tile int, comp Component) SpanRef {
	if r == nil || !r.enabled || flow == 0 {
		return 0
	}
	//m3vlint:ignore noalloc enabled-path span buffer grows amortized; the disabled fast path above allocates nothing
	r.spans = append(r.spans, Span{
		Flow: flow, Parent: parent, Name: name,
		At: at, End: -1, Tile: int32(tile), Comp: comp,
	})
	return SpanRef(len(r.spans))
}

// EndSpan closes a span. A zero or stale ref is ignored, so callers may
// thread refs through unconditionally.
//
//m3v:noalloc
func (r *Recorder) EndSpan(ref SpanRef, end int64) {
	if r == nil || ref <= 0 || int(ref) > len(r.spans) {
		return
	}
	r.spans[ref-1].End = end
}

// EndSpanArgs closes a span and sets its path mark and args in one step.
//
//m3v:noalloc
func (r *Recorder) EndSpanArgs(ref SpanRef, end int64, path Path, arg0, arg1 int64) {
	if r == nil || ref <= 0 || int(ref) > len(r.spans) {
		return
	}
	s := &r.spans[ref-1]
	s.End, s.Path, s.Arg0, s.Arg1 = end, path, arg0, arg1
}

// EmitSpan records a complete span (begin and end known at emit time).
//
//m3v:noalloc
func (r *Recorder) EmitSpan(flow uint64, parent SpanRef, name SpanName, at, end int64, tile int, comp Component, path Path, arg0, arg1 int64) {
	if r == nil || !r.enabled || flow == 0 {
		return
	}
	//m3vlint:ignore noalloc enabled-path span buffer grows amortized; the disabled fast path above allocates nothing
	r.spans = append(r.spans, Span{
		Flow: flow, Parent: parent, Name: name,
		At: at, End: end, Tile: int32(tile), Comp: comp,
		Path: path, Arg0: arg0, Arg1: arg1,
	})
}

// Spans returns the recorded span stream. The slice is owned by the
// recorder; callers must not modify it.
func (r *Recorder) Spans() []Span {
	if r == nil {
		return nil
	}
	return r.spans
}

// SpanHash returns a 64-bit FNV-1a digest over the serialized span stream,
// the span-level counterpart of Hash. Two runs of a deterministic model
// must produce identical span hashes.
func (r *Recorder) SpanHash() uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v int64) {
		u := uint64(v)
		for i := 0; i < 8; i++ {
			buf[i] = byte(u >> (8 * i))
		}
		h.Write(buf[:])
	}
	for i := range r.Spans() {
		s := &r.spans[i]
		put(int64(s.Flow))
		put(int64(s.Parent))
		put(s.At)
		put(s.End)
		put(int64(s.Tile)<<24 | int64(s.Comp)<<16 | int64(s.Name)<<8 | int64(s.Path))
		put(s.Arg0)
		put(s.Arg1)
	}
	return h.Sum64()
}

// CountSpans reports how many recorded spans have the given name.
func (r *Recorder) CountSpans(n SpanName) int64 {
	var c int64
	for i := range r.Spans() {
		if r.spans[i].Name == n {
			c++
		}
	}
	return c
}
