package kernel

import (
	"m3v/internal/cap"
	"m3v/internal/dtu"
	"m3v/internal/noc"
)

// Kernel objects referenced by capabilities. A capability's Obj field holds
// one of these; delegation shares the object, revocation invalidates the
// endpoints activated from it.

// RGateObj is a receive gate: a message endpoint with a buffer. It is
// location-free until activated on its owner's tile.
type RGateObj struct {
	Owner    *ActEntry
	Slots    int
	SlotSize int

	Activated bool
	Tile      noc.TileID
	Ep        dtu.EpID
}

// SGateObj is a send gate targeting a receive gate with a fixed label and
// credit budget.
type SGateObj struct {
	RGate   *RGateObj
	Label   uint64
	Credits int
}

// MemObj is a physical-memory region on a memory tile. Capability windows
// (Off/Size) are offsets into the region.
type MemObj struct {
	Tile noc.TileID
	Base uint64
	Size uint64
}

// SrvObj is a registered service: a name bound to the service's request
// receive gate.
type SrvObj struct {
	Name  string
	Owner *ActEntry
	RGate *RGateObj
}

// SessObj is an open session with a service.
type SessObj struct {
	Srv *SrvObj
	ID  uint64
}

// ActObj grants control over an activity.
type ActObj struct {
	Entry *ActEntry
}

// TileObj grants the right to run activities on a tile.
type TileObj struct {
	Tile noc.TileID
}

// ActEntry is the kernel's record of one activity.
type ActEntry struct {
	ID    uint32
	Local dtu.ActID
	Name  string
	Tile  noc.TileID
	Caps  *cap.Table

	// Std endpoints configured at creation on the activity's tile.
	SyscallSgate dtu.EpID
	SyscallRgate dtu.EpID

	Exited   bool
	ExitCode int32
	// waiters are deferred ActivityWait replies: (slot of the pending
	// syscall message, table of the waiting activity).
	waiters []pendingWait
}

type pendingWait struct {
	slot int
	msg  dtu.Message
}

// binding records which endpoint an activated capability configured, so
// revocation can tear the channel down.
type binding struct {
	tile noc.TileID
	ep   dtu.EpID
}
