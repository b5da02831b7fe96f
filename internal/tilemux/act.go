package tilemux

import (
	"m3v/internal/dtu"
	"m3v/internal/sim"
)

// ActIdle is the activity id TileMux installs in CUR_ACT when no activity is
// ready: incoming messages then always raise core requests.
const ActIdle dtu.ActID = 0xFFFD

// actState is the lifecycle state of an activity on its tile.
type actState uint8

const (
	actCreated  actState = iota // registered by the kernel, not yet started
	actReady                    // runnable, in the run queue or being switched in
	actRunning                  // current on the core
	actBlocked                  // waiting for messages
	actFaulting                 // waiting for the pager to resolve a page fault
	actExited
)

func (s actState) String() string {
	switch s {
	case actCreated:
		return "created"
	case actReady:
		return "ready"
	case actRunning:
		return "running"
	case actBlocked:
		return "blocked"
	case actFaulting:
		return "faulting"
	case actExited:
		return "exited"
	default:
		return "?"
	}
}

// pte is one page-table entry, installed by the kernel via MapPages requests
// (paper §4.3: "TileMux trusts the controller that the mapping is valid and
// manipulates the page-table entries accordingly").
type pte struct {
	ppage uint64
	perm  dtu.Perm
}

// Act is TileMux's per-activity state: scheduling metadata, the saved
// unread-message counter, the page table, and the pager channel.
type Act struct {
	ID   dtu.ActID
	Name string

	mux     *Mux
	proc    *sim.Proc
	state   actState
	started bool // kernel sent StartAct

	// msgs is the in-memory unread-message counter maintained while the
	// activity is not current (paper §3.7).
	msgs    int
	wantMsg bool // blocked in WaitForMsg
	// wakeFlow is the trace flow of the first message that arrived while
	// this activity was off-core; the next switch to it is attributed to
	// that flow as a tilemux.wakeup span (0 = none pending/untraced).
	wakeFlow uint64
	// ext counts pending external events (tile-local device interrupts,
	// paper §4.2: "Activities can use TileMux to wait for events such as
	// received messages and hardware interrupts of tile-local devices").
	ext int

	// Page-fault state.
	pfPending bool
	// pagerEp is TileMux's send endpoint to this activity's pager, or -1.
	pagerEp dtu.EpID

	pages map[uint64]pte // vpage -> pte

	sliceEnd sim.Time
	preempt  bool
	killed   bool
	// expire is the cached time-slice timer callback (sliceExpired).
	expire func()

	opStart sim.Time

	// BusyTime accumulates the core time this activity consumed (compute
	// chunks and DTU operations), for the user/system split of Figure 10.
	BusyTime sim.Time
	ExitCode int32
}

// State reports the scheduling state, for tests.
func (a *Act) State() string { return a.state.String() }

// Busy reports the accumulated core time.
func (a *Act) Busy() sim.Time { return a.BusyTime }

// MapPage installs one page-table entry and drops any stale TLB entry.
func (a *Act) mapPage(vpage, ppage uint64, perm dtu.Perm) {
	a.pages[vpage] = pte{ppage: ppage, perm: perm}
	a.mux.d.TLB().InvalidatePage(a.ID, vpage<<dtu.PageShift)
}

// unmapPage removes a page-table entry and its TLB entry.
func (a *Act) unmapPage(vpage uint64) {
	delete(a.pages, vpage)
	a.mux.d.TLB().InvalidatePage(a.ID, vpage<<dtu.PageShift)
}
