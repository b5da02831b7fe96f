// Package serve is the simulation-as-a-service layer behind cmd/m3vd: an
// HTTP front end that executes registry experiments on a bounded worker
// pool and returns m3vbench-shaped JSON.
//
// The simulator is bit-deterministic: a canonical request fully determines
// the result bytes. That turns two classic serving heuristics into exact
// optimizations — the LRU result cache (equal digest, equal bytes, replay
// nothing) and singleflight coalescing of identical in-flight requests
// (every waiter gets the one computation's bytes). See DESIGN.md §11.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"

	"m3v/internal/bench"
	"m3v/internal/fault"
	"m3v/internal/sim"
)

// Request is the canonical simulation request (schema m3vd/v4). The JSON
// body of POST /run decodes into it; Canonicalize validates it and fills
// defaults so equivalent requests collapse onto one digest.
type Request struct {
	// Experiment is a registry ID (see bench.Experiments).
	Experiment string `json:"experiment"`
	// Tiles is the worker tile count of the fig9 point (clamped to 12);
	// 0 means 1. Experiments with a fixed topology ignore it.
	Tiles int `json:"tiles,omitempty"`
	// FaultSeed / FaultRate arm deterministic fault injection when
	// FaultRate > 0 (rate in [0,1]; seed defaults to 1 when armed).
	FaultSeed uint64  `json:"fault_seed,omitempty"`
	FaultRate float64 `json:"fault_rate,omitempty"`
	// SampleInterval arms sim-time telemetry, e.g. "100ns"; empty is off.
	SampleInterval string `json:"sample_interval,omitempty"`
}

// maxTiles bounds the accepted tile count; individual experiments may
// clamp further (fig9 caps at its figure range of 12).
const maxTiles = 64

// Canonicalize validates r against the experiment registry, normalizes
// every field to its canonical spelling (explicit tile count, re-rendered
// sample interval, zeroed seed when faults are off), and returns the
// resolved runner parameters. Two requests that canonicalize equal are the
// same simulation.
func Canonicalize(r Request, lookup func(string) (bench.Experiment, bool)) (Request, bench.Params, error) {
	var p bench.Params
	if _, ok := lookup(r.Experiment); !ok {
		return r, p, fmt.Errorf("unknown experiment %q", r.Experiment)
	}
	if r.Tiles < 0 || r.Tiles > maxTiles {
		return r, p, fmt.Errorf("tiles %d out of range [0,%d]", r.Tiles, maxTiles)
	}
	if r.Tiles == 0 {
		r.Tiles = 1
	}
	if !fault.ValidRate(r.FaultRate) {
		return r, p, fmt.Errorf("fault_rate %g out of range [0,1]", r.FaultRate)
	}
	if r.FaultRate == 0 {
		r.FaultSeed = 0 // seed is meaningless without a rate
	} else if r.FaultSeed == 0 {
		r.FaultSeed = 1
	}
	var every sim.Time
	if r.SampleInterval != "" {
		var err error
		every, err = sim.ParseTime(r.SampleInterval)
		if err != nil {
			return r, p, fmt.Errorf("sample_interval: %w", err)
		}
		if every <= 0 {
			return r, p, fmt.Errorf("sample_interval %q must be positive", r.SampleInterval)
		}
		r.SampleInterval = every.String()
	}
	p = bench.Params{
		Tiles:          r.Tiles,
		FaultSeed:      r.FaultSeed,
		FaultRate:      r.FaultRate,
		SampleInterval: every,
	}
	return r, p, nil
}

// Digest returns the stable identity of a canonical request: a hex SHA-256
// over a versioned, field-ordered encoding. Only meaningful after
// Canonicalize (otherwise equivalent spellings digest apart). The
// ResponseSchema prefix versions the encoding itself: a schema change must
// not collide with old digests.
func (r Request) Digest() string {
	h := sha256.New()
	fmt.Fprintf(h, "%s|%s|%d|%d|%x|%s",
		ResponseSchema, r.Experiment, r.Tiles, r.FaultSeed, r.FaultRate, r.SampleInterval)
	return hex.EncodeToString(h.Sum(nil))
}
