package bench

import (
	"errors"
	"flag"
	"fmt"

	"m3v/internal/core"
	"m3v/internal/fault"
	"m3v/internal/sim"
)

// ErrCancelled is returned by an experiment whose simulation was stopped
// through the canceler before completing (deadline, client disconnect).
var ErrCancelled = errors.New("bench: run cancelled")

// Params are the run parameters of an experiment. The zero value means
// "experiment defaults". Together with the experiment ID they fully
// determine the simulation — the simulator is bit-deterministic, so equal
// params imply equal results (the property m3vd's cache and coalescing rely
// on).
type Params struct {
	// Tiles > 0 asks fig9 for the M3v series at that one tile count,
	// clamped to 12 (the point m3vd serves). Other experiments have a fixed
	// topology and ignore it.
	Tiles int
	// Fig9Series is the tile-count series of the whole fig9 figure, used
	// when Tiles is 0; nil means 1, 2, 4, 8, 12.
	Fig9Series []int
	// FaultSeed / FaultRate arm deterministic fault injection on every
	// simulated system when FaultRate > 0.
	FaultSeed uint64
	FaultRate float64
	// SampleInterval arms sim-time telemetry sampling when > 0.
	SampleInterval sim.Time
}

// Apply overlays the parameters onto a platform config: the one place where
// run parameters reach a core.Config.
func (p Params) Apply(cfg *core.Config) {
	if p.FaultRate > 0 {
		cfg.Fault = fault.Config{Seed: p.FaultSeed, Rate: p.FaultRate}
	}
	if p.SampleInterval > 0 {
		cfg.Sample = core.SampleConfig{Interval: p.SampleInterval}
	}
}

// BindFlags registers -fault-seed, -fault-rate and -sample-interval on fs.
// The returned function validates the parsed values into p; call it after
// fs.Parse.
func (p *Params) BindFlags(fs *flag.FlagSet) func() error {
	fs.Uint64Var(&p.FaultSeed, "fault-seed", 1, "fault-injection schedule seed (with -fault-rate)")
	fs.Float64Var(&p.FaultRate, "fault-rate", 0, "uniform fault-injection rate in [0,1] applied to every simulated system (0 disables)")
	every := fs.String("sample-interval", "", "telemetry sampling interval in sim time applied to every simulated system (e.g. 100ns; empty disables)")
	return func() error {
		if !fault.ValidRate(p.FaultRate) {
			return fmt.Errorf("-fault-rate must be in [0,1], got %g", p.FaultRate)
		}
		if *every != "" {
			t, err := sim.ParseTime(*every)
			if err != nil {
				return fmt.Errorf("-sample-interval: %w", err)
			}
			p.SampleInterval = t
		}
		return nil
	}
}

// newSystem builds a platform from cfg with the parameters applied and
// attaches its engine to c. Every simulated M3v/M3x system of the harness
// is built here, so no experiment can miss a parameter or the canceler
// (params_test.go guards this).
func (p Params) newSystem(cfg core.Config, c *sim.Canceler) *core.System {
	p.Apply(&cfg)
	sys := core.New(cfg)
	c.Attach(sys.Eng)
	return sys
}

// newLinuxEngine builds the engine of a Linux-model reference run, attached
// to c. The Linux model has no platform config, so the parameters do not
// apply.
func newLinuxEngine(c *sim.Canceler) *sim.Engine {
	eng := sim.NewEngine()
	c.Attach(eng)
	return eng
}
