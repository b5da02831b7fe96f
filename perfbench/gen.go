package main

import (
	"fmt"
	"math/rand/v2"

	"m3v/internal/traces"
)

// Seeded trace shapes. Each draws its structure (directory and file
// counts, insert and select counts, compute gaps) from the seed but holds
// the number of file-system calls close to a fixed budget, so that runs
// with different seeds do comparable host work and their wall times can be
// compared. The budgets are a quarter of the paper traces' size: the
// seeded traces run at 4 and 12 worker tiles, where a paper-sized trace
// would take seconds per point.
const (
	findEntries   = 240 // files across all directories (paper: 24 x 40)
	sqliteCalls   = 112 // file-system calls of the run phase (paper: 448)
	insertCalls   = 10  // calls per INSERT: open/read/close, journal, write, unlink
	selectCalls   = 4   // calls per SELECT: open, two reads, close
	findGapCycles = 25000
)

// shape names a seeded trace generator.
type shape string

const (
	shapeFind   shape = "find"
	shapeSQLite shape = "sqlite"
)

func (s shape) gen(seed uint64) *traces.Trace {
	switch s {
	case shapeFind:
		return FindShaped(seed)
	case shapeSQLite:
		return SQLiteShaped(seed)
	}
	panic(fmt.Sprintf("perfbench: unknown trace shape %q", s))
}

func newRand(seed uint64) *rand.Rand {
	return rand.New(rand.NewPCG(seed, 0x6d33762d7472616e)) // "m3v-tran"
}

// FindShaped returns a find(1)-shaped trace: a tree of 8-12 directories
// holding findEntries files split unevenly between them, walked with one
// readdir per directory and one stat per entry, each stat followed by a
// compute gap of 15k-35k cycles.
func FindShaped(seed uint64) *traces.Trace {
	rng := newRand(seed)
	dirs := 8 + rng.IntN(5)
	// Every directory gets one entry; the rest land at random.
	counts := make([]int, dirs)
	for i := range counts {
		counts[i] = 1
	}
	for i := 0; i < findEntries-dirs; i++ {
		counts[rng.IntN(dirs)]++
	}
	t := &traces.Trace{Name: fmt.Sprintf("find-seed%d", seed)}
	for d, n := range counts {
		dir := fmt.Sprintf("/d%02d", d)
		t.Setup = append(t.Setup, traces.Op{Kind: traces.OpMkdir, Path: dir})
		for f := 0; f < n; f++ {
			path := fmt.Sprintf("%s/f%03d", dir, f)
			t.Setup = append(t.Setup,
				traces.Op{Kind: traces.OpCreate, Path: path},
				traces.Op{Kind: traces.OpWrite, Path: path, Size: 16 + rng.IntN(113)},
				traces.Op{Kind: traces.OpClose, Path: path},
			)
		}
	}
	for d, n := range counts {
		dir := fmt.Sprintf("/d%02d", d)
		t.Run = append(t.Run, traces.Op{Kind: traces.OpReadDir, Path: dir})
		for f := 0; f < n; f++ {
			t.Run = append(t.Run,
				traces.Op{Kind: traces.OpStat, Path: fmt.Sprintf("%s/f%03d", dir, f)},
				traces.Op{Kind: traces.OpCompute, Cycles: findGapCycles - 10000 + rng.Int64N(20001)},
			)
		}
	}
	return t
}

// SQLiteShaped returns an SQLite-shaped trace: 6-10 INSERTs (read the
// page, journal it, write it back, unlink the journal) and as many SELECTs
// (open, read two pages) as keep the run near sqliteCalls file-system
// calls, in seeded order, against a database of 2-6 pages.
func SQLiteShaped(seed uint64) *traces.Trace {
	rng := newRand(seed)
	const pageSize = 4096
	const db, journal = "/test.db", "/test.db-journal"
	inserts := 6 + rng.IntN(5)
	selects := (sqliteCalls - insertCalls*inserts + selectCalls/2) / selectCalls
	t := &traces.Trace{Name: fmt.Sprintf("sqlite-seed%d", seed)}
	t.Setup = append(t.Setup, traces.Op{Kind: traces.OpCreate, Path: db})
	for i, pages := 0, 2+rng.IntN(5); i < pages; i++ {
		t.Setup = append(t.Setup, traces.Op{Kind: traces.OpWrite, Path: db, Size: pageSize})
	}
	t.Setup = append(t.Setup, traces.Op{Kind: traces.OpClose, Path: db})
	for inserts+selects > 0 {
		if rng.IntN(inserts+selects) < inserts {
			inserts--
			t.Run = append(t.Run,
				traces.Op{Kind: traces.OpOpen, Path: db},
				traces.Op{Kind: traces.OpRead, Path: db, Size: pageSize},
				traces.Op{Kind: traces.OpCompute, Cycles: 250000 + rng.Int64N(200001)},
				traces.Op{Kind: traces.OpClose, Path: db},
				traces.Op{Kind: traces.OpCreate, Path: journal},
				traces.Op{Kind: traces.OpWrite, Path: journal, Size: pageSize},
				traces.Op{Kind: traces.OpClose, Path: journal},
				traces.Op{Kind: traces.OpOpen, Path: db},
				traces.Op{Kind: traces.OpWrite, Path: db, Size: pageSize},
				traces.Op{Kind: traces.OpClose, Path: db},
				traces.Op{Kind: traces.OpUnlink, Path: journal},
			)
		} else {
			selects--
			t.Run = append(t.Run,
				traces.Op{Kind: traces.OpOpen, Path: db},
				traces.Op{Kind: traces.OpRead, Path: db, Size: pageSize},
				traces.Op{Kind: traces.OpRead, Path: db, Size: pageSize},
				traces.Op{Kind: traces.OpCompute, Cycles: 150000 + rng.Int64N(200001)},
				traces.Op{Kind: traces.OpClose, Path: db},
			)
		}
	}
	return t
}
