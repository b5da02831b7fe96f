// Package m3fs implements the extent-based in-memory file system of M³v and
// its client library (paper §6.3). The defining property — and the cause of
// Figure 7's shape — is that a single request to the server grants the
// client *direct vDTU access to an entire extent*: the server derives a
// memory capability for the extent, delegates it to the client, and the
// client moves data with plain DTU reads/writes, never involving the file
// system again until the extent is exhausted.
package m3fs

import "m3v/internal/proto"

// ServiceName is the service name the server registers.
const ServiceName = "m3fs"

// Protocol opcodes (local to the m3fs request gate).
const (
	opInit proto.Op = iota + 1
	opOpen
	opStat
	opNextIn
	opNextOut
	opCommit
	opClose
	opMkdir
	opReadDir
	opUnlink
	opSeek
)

// Open flags.
const (
	FlagR      = 1 << iota // read
	FlagW                  // write
	FlagCreate             // create if absent
	FlagTrunc              // truncate to zero length
)

// BlockBytes is the file system block size.
const BlockBytes = 4096

// maxExtentBlocks caps extent size (paper §6.3: limited to 64 blocks).
const maxExtentBlocks = 64

// The server-side work per operation, in server-core cycles.
const (
	openCycles      = 2500
	statCycles      = 1200
	nextInCycles    = 1600
	nextOutCycles   = 1800 // base; plus zeroBlockCycles per allocated block
	zeroBlockCycles = 1800
	commitCycles    = 800
	closeCycles     = 600
	mkdirCycles     = 2000
	readDirCycles   = 1500 // base; plus dirEntryCycles per entry
	dirEntryCycles  = 60
	unlinkCycles    = 2000
)

// Client-side costs (cycles): per-call library overhead and per-byte buffer
// copy, the dominant cost of read/write loops on the 80 MHz cores.
const (
	clientCallCycles  = 250
	copyBytesPerCycle = 8
)
