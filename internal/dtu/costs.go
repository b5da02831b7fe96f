package dtu

import "m3v/internal/sim"

// The DTU timing model. Command costs are in cycles of the attached core's
// clock: they model the uncached MMIO register accesses (argument setup,
// command issue, status polling) that dominate command latency on the FPGA
// platform. DTU-internal work is in absolute time since the DTU runs in its
// own clock domain.
//
// The constants are calibrated against the paper's Figure 6 anchor points:
// a cross-tile no-op RPC costs about as much as a Linux no-op system call
// (~25 us on the 80 MHz BOOM core, i.e. ~2000 cycles), and a tile-local
// no-op RPC costs ~5k cycles.
const (
	// SendCycles is the SEND command: 4 argument registers + issue +
	// completion poll. Exported for reports that quote the per-command
	// overhead.
	SendCycles  = 520
	replyCycles = 520 // REPLY: like SEND
	fetchCycles = 280 // FETCH_MSG: issue + read result register
	ackCycles   = 160 // ACK_MSG
	xferCycles  = 300 // READ/WRITE issue + completion poll
	privCycles  = 60  // privileged interface access (SWITCH_ACT, TLB, core reqs)

	procTime   = 300 * sim.Nanosecond // DTU command/packet processing (FSM traversal)
	xferByteNs = 10                   // cache-bus transfer cost, nanoseconds per 64 bytes
	irqLatency = 100 * sim.Nanosecond // core-request interrupt injection latency
)

// PollInterval is the period of every busy-wait loop in the model: TileMux
// and RCTMux waiting for a message, the controller waiting for a
// multiplexer's reply, and an activity waiting for send credits. The value
// is not calibrated against the paper; replacing the polls with a DTU wakeup
// is ROADMAP item 1.
const PollInterval = sim.Microsecond

// xferTime reports the cache-bus cost for moving n payload bytes.
func xferTime(n int) sim.Time {
	if n <= 0 {
		return 0
	}
	blocks := int64((n + 63) / 64)
	return sim.Time(blocks*xferByteNs) * sim.Nanosecond
}
