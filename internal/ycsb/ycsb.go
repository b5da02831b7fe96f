// Package ycsb generates Yahoo! Cloud Serving Benchmark workloads (paper
// §6.5.2): insert, update, read, and scan operations over a Zipfian-skewed
// key population, with the operation mixes the paper evaluates.
package ycsb

import (
	"fmt"
	"math"
	"math/rand"
)

// OpKind is one YCSB operation type.
type OpKind uint8

// Operation kinds.
const (
	OpRead OpKind = iota
	OpInsert
	OpUpdate
	OpScan
)

func (k OpKind) String() string {
	switch k {
	case OpRead:
		return "read"
	case OpInsert:
		return "insert"
	case OpUpdate:
		return "update"
	case OpScan:
		return "scan"
	default:
		return "?"
	}
}

// Op is one generated operation.
type Op struct {
	Kind  OpKind
	Key   string
	Value string // inserts and updates
	Scan  int    // scan length
}

// Mix is an operation mix in percent.
type Mix struct {
	Read, Insert, Update, Scan int
}

// The paper's workload mixes (§6.5.2): the first three omit scans and use
// 80-10-10; the scan-heavy workload omits updates with 80-10-10 for the
// other three; mixed is 50-10-30-10.
var (
	ReadHeavy   = Mix{Read: 80, Insert: 10, Update: 10}
	InsertHeavy = Mix{Read: 10, Insert: 80, Update: 10}
	UpdateHeavy = Mix{Read: 10, Insert: 10, Update: 80}
	ScanHeavy   = Mix{Scan: 80, Read: 10, Insert: 10}
	Mixed       = Mix{Read: 50, Insert: 10, Update: 30, Scan: 10}
)

// Mixes enumerates the paper's workloads in Figure 10 order.
var Mixes = []struct {
	Name string
	Mix  Mix
}{
	{"read", ReadHeavy},
	{"insert", InsertHeavy},
	{"update", UpdateHeavy},
	{"mixed", Mixed},
	{"scan", ScanHeavy},
}

// Fixed workload shape: YCSB's default Zipfian skew, the value size in
// bytes and the records per scan.
const (
	zipfTheta = 0.99
	valueLen  = 256
	scanLen   = 20
)

// Config parameterizes a workload.
type Config struct {
	Records int // records created in the load phase (paper: 200)
	Ops     int // operations executed (paper: 200)
	Seed    int64
	Mix     Mix
}

// Workload is a generated benchmark: a load phase plus an operation stream.
type Workload struct {
	Load []Op
	Run  []Op
}

// Generate builds a workload with the Zipfian request distribution
// (paper: "all workloads are generated with the Zipfian distribution").
func Generate(cfg Config) *Workload {
	if cfg.Records == 0 {
		cfg.Records = 200
	}
	if cfg.Ops == 0 {
		cfg.Ops = 200
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	zipf := NewZipf(rng, zipfTheta, cfg.Records)

	w := &Workload{}
	for i := 0; i < cfg.Records; i++ {
		w.Load = append(w.Load, Op{
			Kind:  OpInsert,
			Key:   Key(i),
			Value: value(rng, valueLen),
		})
	}
	inserted := cfg.Records
	total := cfg.Mix.Read + cfg.Mix.Insert + cfg.Mix.Update + cfg.Mix.Scan
	for i := 0; i < cfg.Ops; i++ {
		r := rng.Intn(total)
		switch {
		case r < cfg.Mix.Read:
			w.Run = append(w.Run, Op{Kind: OpRead, Key: Key(zipf.Next())})
		case r < cfg.Mix.Read+cfg.Mix.Insert:
			w.Run = append(w.Run, Op{
				Kind:  OpInsert,
				Key:   Key(inserted),
				Value: value(rng, valueLen),
			})
			inserted++
		case r < cfg.Mix.Read+cfg.Mix.Insert+cfg.Mix.Update:
			w.Run = append(w.Run, Op{
				Kind:  OpUpdate,
				Key:   Key(zipf.Next()),
				Value: value(rng, valueLen),
			})
		default:
			w.Run = append(w.Run, Op{
				Kind: OpScan,
				Key:  Key(zipf.Next()),
				Scan: scanLen,
			})
		}
	}
	return w
}

// Key formats the i-th record key.
func Key(i int) string { return fmt.Sprintf("user%08d", i) }

func value(rng *rand.Rand, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = byte('a' + rng.Intn(26))
	}
	return string(b)
}

// Zipf is YCSB's Zipfian generator (Gray et al.'s algorithm, as in the YCSB
// core ScrambledZipfianGenerator's underlying distribution).
type Zipf struct {
	rng   *rand.Rand
	items int
	theta float64
	alpha float64
	zetan float64
	eta   float64
}

// NewZipf builds a Zipfian generator over [0, items).
func NewZipf(rng *rand.Rand, theta float64, items int) *Zipf {
	z := &Zipf{rng: rng, items: items, theta: theta}
	z.zetan = zeta(items, theta)
	z.alpha = 1.0 / (1.0 - theta)
	zeta2 := zeta(2, theta)
	z.eta = (1 - math.Pow(2.0/float64(items), 1-theta)) / (1 - zeta2/z.zetan)
	return z
}

func zeta(n int, theta float64) float64 {
	sum := 0.0
	for i := 1; i <= n; i++ {
		sum += 1.0 / math.Pow(float64(i), theta)
	}
	return sum
}

// Next draws the next item index.
func (z *Zipf) Next() int {
	u := z.rng.Float64()
	uz := u * z.zetan
	if uz < 1.0 {
		return 0
	}
	if uz < 1.0+math.Pow(0.5, z.theta) {
		return 1
	}
	idx := int(float64(z.items) * math.Pow(z.eta*u-z.eta+1, z.alpha))
	if idx >= z.items {
		idx = z.items - 1
	}
	return idx
}
