// m3vtrace analyzes causal span streams dumped by m3vsim/m3vbench -flows:
// it prints per-message latency breakdowns by segment and the critical-path
// report (which segment dominates each flow's end-to-end latency, split by
// fast/slow verdict), checks span-stream well-formedness, and exports the
// flows as Perfetto-loadable JSON with connected flow arrows.
//
//	m3vsim -shared -flows flows.json
//	m3vtrace flows.json                      # latency + critical-path report
//	m3vtrace -check flows.json               # exit non-zero on malformed streams
//	m3vtrace -perfetto t.json flows.json     # Chrome/Perfetto export with arrows
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"m3v/internal/profile"
	"m3v/internal/trace"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run executes the tool and returns its exit code. Split from main for CLI
// tests.
func run(args []string, stdout, stderr io.Writer) int {
	fail := func(format string, a ...interface{}) int {
		fmt.Fprintf(stderr, "m3vtrace: "+format+"\n", a...)
		return 1
	}
	fs := flag.NewFlagSet("m3vtrace", flag.ContinueOnError)
	fs.SetOutput(stderr)
	check := fs.Bool("check", false, "verify span-stream well-formedness; exit non-zero on problems")
	perfetto := fs.String("perfetto", "", "also write a Chrome trace-event JSON file with flow arrows")
	var prof profile.Flags
	fs.StringVar(&prof.CPU, "cpuprofile", "", "write a CPU profile to this file (large flow files)")
	fs.Usage = func() {
		fmt.Fprintf(stderr, "usage: m3vtrace [-check] [-perfetto out.json] flows.json\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return 2
	}
	if err := prof.Start(); err != nil {
		return fail("%v", err)
	}
	defer prof.Stop()

	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return fail("%v", err)
	}
	flows, err := trace.ReadFlows(f)
	f.Close()
	if err != nil {
		return fail("%v", err)
	}

	problems := trace.CheckFlows(flows)
	if *check {
		if len(problems) > 0 {
			for _, p := range problems {
				fmt.Fprintf(stderr, "m3vtrace: %s\n", p)
			}
			return fail("%d problem(s) found", len(problems))
		}
		total := 0
		for _, run := range flows.Runs {
			total += len(run.Spans)
		}
		fmt.Fprintf(stdout, "ok: %d spans in %d runs, all streams well-formed\n", total, len(flows.Runs))
		return 0
	}
	// In report mode still surface problems, but don't fail the run.
	for _, p := range problems {
		fmt.Fprintf(stderr, "m3vtrace: warning: %s\n", p)
	}

	if *perfetto != "" {
		out, err := os.Create(*perfetto)
		if err != nil {
			return fail("%v", err)
		}
		if err := trace.WriteFlowsChrome(out, flows); err != nil {
			return fail("perfetto: %v", err)
		}
		if err := out.Close(); err != nil {
			return fail("perfetto: %v", err)
		}
		fmt.Fprintf(stdout, "perfetto: %s\n", *perfetto)
	}

	fmt.Fprint(stdout, trace.AnalyzeFlows(flows).Format())
	return 0
}
