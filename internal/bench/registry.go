package bench

import "m3v/internal/sim"

// Experiment is one entry of the shared experiment registry: the single
// dispatch table behind both cmd/m3vbench and the m3vd serving layer.
type Experiment struct {
	// ID is the canonical name accepted by -run and the serving request
	// schema.
	ID string
	// Title matches the Result title the driver produces.
	Title string
	// Run executes the reproduction. It is deterministic for equal params
	// and honors the canceler: once c is cancelled it returns ErrCancelled.
	// A nil canceler never cancels.
	Run func(Params, *sim.Canceler) (*Result, error)
}

// Experiments returns the registry in canonical run order. It is an ordered
// slice rather than a map: bench is a determinism-checked package, and both
// consumers (-list output, the serving layer's experiment index) print it.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "vDTU area accounting (structural model)", Run: Table1},
		{ID: "sloc", Title: "Software complexity (SLOC)", Run: SoftwareComplexity},
		{ID: "fig6", Title: "Local/remote no-op RPC vs Linux primitives", Run: Fig6},
		{ID: "fig7", Title: "File read/write throughput (MiB/s)", Run: Fig7},
		{ID: "fig8", Title: "UDP round-trip latency (us)", Run: Fig8},
		{ID: "fig9", Title: "Scalability of tile multiplexing (runs/s)", Run: Fig9},
		{ID: "voice", Title: "Voice assistant: compress+transmit after trigger", Run: VoiceAssistant},
		{ID: "fig10", Title: "Cloud service (YCSB on LSM store), runtime per run", Run: Fig10},
		{ID: "ablation", Title: "Design-choice ablations", Run: Ablations},
	}
}

// Lookup finds a registry entry by ID. A linear scan over the ordered
// slice: nine entries, and no map keeps the package free of ordering
// hazards.
func Lookup(id string) (Experiment, bool) {
	for _, e := range Experiments() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}
