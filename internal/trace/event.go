// Package trace provides the simulator's structured event-tracing and
// metrics layer. Components emit typed events keyed by (tile, component,
// kind) into a Recorder; a registry of named counters and histograms
// subsumes the ad-hoc counter fields the components used to carry.
//
// The event stream is disabled by default and designed to be free when off:
// every emit helper is a method on *Recorder that returns immediately (with
// zero allocations) when the recorder is nil or disabled. Metrics, by
// contrast, are always live — they are plain int64 adds and replace the
// counters tests and reports already depend on.
//
// The package deliberately does not import m3v/internal/sim: timestamps are
// raw picosecond int64s, so the simulation engine itself can own a Recorder
// without an import cycle.
package trace

// Component identifies the subsystem that emitted an event.
type Component uint8

// Components, in stable order (the order is part of the trace format: the
// Chrome exporter uses it as the thread id within a tile's process).
const (
	CompEngine Component = iota
	CompNoC
	CompDTU
	CompTileMux
	CompKernel
	CompActivity
	CompFault
	numComponents
)

var componentNames = [numComponents]string{
	CompEngine:   "engine",
	CompNoC:      "noc",
	CompDTU:      "dtu",
	CompTileMux:  "tilemux",
	CompKernel:   "kernel",
	CompActivity: "activity",
	CompFault:    "fault",
}

// String returns the component's short name.
func (c Component) String() string {
	if int(c) < len(componentNames) {
		return componentNames[c]
	}
	return "?"
}

// Kind is the type of a trace event. The meaning of the Arg fields depends
// on the kind; see the constants below.
type Kind uint8

// Event kinds.
const (
	// KindCtxSwitch is a TileMux context switch.
	// Arg0 = previous activity id, Arg1 = next activity id,
	// Arg2 = SwitchReason. Dur covers the switch cost.
	KindCtxSwitch Kind = iota
	// KindDTUCmd is one unprivileged DTU command.
	// Arg0 = DTUCmd, Arg1 = endpoint, Arg2 = payload bytes,
	// Arg3 = error code (0 = ok). Dur covers the command's blocking time.
	KindDTUCmd
	// KindCoreReqRaise records the vDTU queueing a core request.
	// Arg0 = target activity id, Arg1 = queue depth after the push.
	KindCoreReqRaise
	// KindCoreReqDrain records TileMux acknowledging a core request.
	// Arg0 = target activity id, Arg1 = queue depth after the pop.
	KindCoreReqDrain
	// KindTLBHit is a successful vDTU TLB translation.
	// Arg0 = activity id, Arg1 = virtual address.
	KindTLBHit
	// KindTLBMiss is a failed vDTU TLB translation.
	// Arg0 = activity id, Arg1 = virtual address.
	KindTLBMiss
	// KindTLBEvict records a FIFO eviction on TLB insert.
	// Arg0 = evicted activity id, Arg1 = evicted virtual page address.
	KindTLBEvict
	// KindPageFault is a major fault forwarded to the pager.
	// Arg0 = activity id, Arg1 = faulting virtual address, Arg2 = perm.
	KindPageFault
	// KindSyscall is one controller system call.
	// Arg0 = protocol op, Arg1 = calling activity id. Dur covers handling.
	KindSyscall
	// KindIrq is a TileMux core-request/kernel-message interrupt.
	// Arg0 = pending core requests at interrupt entry.
	KindIrq
	// KindNoCPacket is one NoC delivery attempt (Tile = destination).
	// Arg0 = source tile, Arg1 = destination tile, Arg2 = size in bytes,
	// Arg3 = 1 if delivered, 0 if NACKed.
	KindNoCPacket
	// KindActExit records an activity exit notification at the controller.
	// Arg0 = global activity id, Arg1 = exit code.
	KindActExit
	numKinds
)

var kindNames = [numKinds]string{
	KindCtxSwitch:    "ctx_switch",
	KindDTUCmd:       "dtu_cmd",
	KindCoreReqRaise: "core_req_raise",
	KindCoreReqDrain: "core_req_drain",
	KindTLBHit:       "tlb_hit",
	KindTLBMiss:      "tlb_miss",
	KindTLBEvict:     "tlb_evict",
	KindPageFault:    "page_fault",
	KindSyscall:      "syscall",
	KindIrq:          "irq",
	KindNoCPacket:    "noc_packet",
	KindActExit:      "act_exit",
}

// String returns the kind's snake_case name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "?"
}

// DTUCmd distinguishes the unprivileged DTU commands within KindDTUCmd.
type DTUCmd uint8

// DTU command codes.
const (
	CmdSend DTUCmd = iota
	CmdReply
	CmdFetch
	CmdAck
	CmdRead
	CmdWrite
	numDTUCmds
)

var dtuCmdNames = [numDTUCmds]string{
	CmdSend: "send", CmdReply: "reply", CmdFetch: "fetch",
	CmdAck: "ack", CmdRead: "read", CmdWrite: "write",
}

// String returns the command's lower-case mnemonic.
func (c DTUCmd) String() string {
	if int(c) < len(dtuCmdNames) {
		return dtuCmdNames[c]
	}
	return "?"
}

// SwitchReason explains why TileMux performed a context switch.
type SwitchReason uint8

// Context-switch reasons.
const (
	// SwitchDispatch: the idle core picked up a ready activity.
	SwitchDispatch SwitchReason = iota
	// SwitchPreempt: the time slice expired with other activities ready.
	SwitchPreempt
	// SwitchBlock: the activity blocked in WaitForMsg.
	SwitchBlock
	// SwitchYield: the activity yielded voluntarily.
	SwitchYield
	// SwitchExit: the activity exited.
	SwitchExit
	// SwitchFault: the activity blocked on a page fault.
	SwitchFault
	numSwitchReasons
)

var switchReasonNames = [numSwitchReasons]string{
	SwitchDispatch: "dispatch", SwitchPreempt: "preempt", SwitchBlock: "block",
	SwitchYield: "yield", SwitchExit: "exit", SwitchFault: "fault",
}

// String returns the reason's lower-case name.
func (r SwitchReason) String() string {
	if int(r) < len(switchReasonNames) {
		return switchReasonNames[r]
	}
	return "?"
}

// Event is one recorded occurrence. All fields are plain scalars so a
// recorded stream can be hashed and compared bit-for-bit across runs.
type Event struct {
	// At is the simulated timestamp in picoseconds.
	At int64
	// Dur is the event's duration in picoseconds (0 for instants).
	Dur int64
	// Tile is the tile the event is attributed to.
	Tile int32
	// Comp is the emitting component.
	Comp Component
	// Kind selects the interpretation of the Arg fields.
	Kind Kind
	// Arg0..Arg3 are kind-specific payload values.
	Arg0, Arg1, Arg2, Arg3 int64
}
