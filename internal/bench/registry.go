package bench

import (
	"errors"

	"m3v/internal/core"
	"m3v/internal/fault"
	"m3v/internal/sim"
)

// ErrCancelled is returned by Servable runners whose simulation was stopped
// through the canceler before completing (deadline, client disconnect).
var ErrCancelled = errors.New("bench: run cancelled")

// ServeParams are the knobs a serving request may turn on a servable
// experiment. The zero value means "experiment defaults". Together with the
// experiment ID these fully determine the simulation — the simulator is
// bit-deterministic, so equal params imply equal results (the property the
// serving layer's cache and coalescing rely on).
type ServeParams struct {
	// Tiles is the worker tile count for experiments with a tile sweep
	// (fig9). Experiments with a fixed topology ignore it.
	Tiles int
	// FaultSeed / FaultRate arm deterministic fault injection when
	// FaultRate > 0.
	FaultSeed uint64
	FaultRate float64
	// SampleInterval arms sim-time telemetry sampling when > 0.
	SampleInterval sim.Time
}

// apply overlays the request knobs onto a platform config.
func (p ServeParams) apply(cfg *core.Config) {
	if p.FaultRate > 0 {
		cfg.Fault = fault.Uniform(p.FaultSeed, p.FaultRate)
	}
	if p.SampleInterval > 0 {
		cfg.Sample = core.SampleConfig{Interval: p.SampleInterval}
	}
}

// Experiment is one entry of the shared experiment registry: the single
// dispatch table behind both cmd/m3vbench and the m3vd serving layer.
type Experiment struct {
	// ID is the canonical name accepted by -run and the serving request
	// schema.
	ID string
	// Title matches the Result title the driver produces.
	Title string
	// Run executes the full figure/table reproduction (CLI semantics).
	Run func() *Result
	// Servable executes a parameterized, cancellable variant for the
	// serving layer; nil marks the experiment CLI-only. Implementations
	// must honor the canceler (returning ErrCancelled) and be
	// deterministic for equal params.
	Servable func(ServeParams, *sim.Canceler) (*Result, error)
}

// Experiments returns the registry in canonical run order. It is an ordered
// slice rather than a map: bench is a determinism-checked package, and both
// consumers (-list output, the serving layer's experiment index) print it.
func Experiments() []Experiment {
	return []Experiment{
		{ID: "table1", Title: "vDTU area accounting (structural model)", Run: Table1},
		{ID: "sloc", Title: "Software complexity (SLOC)", Run: SoftwareComplexity},
		{ID: "fig6", Title: "Local/remote no-op RPC vs Linux primitives", Run: Fig6, Servable: servableFig6},
		{ID: "fig7", Title: "File read/write throughput (MiB/s)", Run: Fig7},
		{ID: "fig8", Title: "UDP round-trip latency (us)", Run: Fig8},
		{ID: "fig9", Title: "Scalability of tile multiplexing (runs/s)", Run: Fig9, Servable: servableFig9},
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
