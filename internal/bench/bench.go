// Package bench implements the experiment harness: one driver per table and
// figure of the paper's evaluation (§6). Each driver rebuilds the paper's
// setup on the simulated platform, runs it, and reports the same rows or
// series the paper plots, alongside the paper's published values for
// comparison in EXPERIMENTS.md.
package bench

import (
	"fmt"
	"strings"

	"m3v/internal/stats"
)

// Metric is one reported value.
type Metric struct {
	Label string
	Value float64
	Unit  string
	// Paper is the corresponding value reported in the paper (0 if the
	// paper gives no comparable number). Absolute values are not expected
	// to match — the shape is.
	Paper float64
}

// Result is one experiment's outcome.
type Result struct {
	ID    string // e.g. "fig6"
	Title string
	Rows  []Metric
	Notes []string
}

// Add appends a metric row.
func (r *Result) Add(label string, value float64, unit string, paper float64) {
	r.Rows = append(r.Rows, Metric{Label: label, Value: value, Unit: unit, Paper: paper})
}

// Note appends a free-form note.
func (r *Result) Note(format string, args ...interface{}) {
	r.Notes = append(r.Notes, fmt.Sprintf(format, args...))
}

// String renders the result as a table.
func (r *Result) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	t := stats.NewTable("metric", "measured", "unit", "paper")
	for _, m := range r.Rows {
		paper := "-"
		if m.Paper != 0 {
			paper = fmt.Sprintf("%.4g", m.Paper)
		}
		t.AddRow(m.Label, m.Value, m.Unit, paper)
	}
	b.WriteString(t.String())
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// Get returns the value of a row by label (0 if absent), for tests.
func (r *Result) Get(label string) float64 {
	for _, m := range r.Rows {
		if m.Label == label {
			return m.Value
		}
	}
	return 0
}

// All runs every experiment in paper order (the registry's order) with the
// default parameters. It stops at the first failing experiment.
func All() ([]*Result, error) {
	var out []*Result
	for _, e := range Experiments() {
		r, err := e.Run(Params{}, nil)
		if err != nil {
			return out, fmt.Errorf("%s: %w", e.ID, err)
		}
		out = append(out, r)
	}
	return out, nil
}
