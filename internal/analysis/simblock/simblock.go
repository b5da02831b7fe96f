// Package simblock implements the m3vlint analyzer that keeps the
// simulation context non-blocking. The engine multiplexes every simulated
// core onto the dispatch goroutine; one stray time.Sleep or unbounded
// channel operation reachable from event dispatch stalls the whole
// simulated machine in wall-clock time and corrupts the overhead
// measurements the paper's claim rests on.
//
// Roots are annotated //m3v:simctx (engine dispatch, process block/wake,
// DTU and NoC handlers). The analyzer walks the module call graph
// (internal/analysis/callgraph) from those roots — static calls including
// defer and go statements, interface calls expanded to every concrete
// implementation in the module (class-hierarchy analysis), and function
// values referenced in reachable bodies — and reports, anywhere in the
// reachable set:
//
//   - calls that block the wall clock: time.Sleep/Tick/After/AfterFunc/
//     NewTicker/NewTimer, (sync.WaitGroup).Wait, (sync.Cond).Wait;
//   - channel sends, receives, selects, and ranges over channels;
//   - calls into os, os/exec, net, and syscall (host I/O has no place in
//     simulated time).
//
// Calls through plain function values are not followed (the Refs edges
// cover values that escape into callback tables); arguments of panic calls
// are exempt. The engine's own process switch needs no exception: it is an
// iter.Pull coroutine switch, not a channel operation. A justified site
// elsewhere takes an //m3vlint:ignore simblock <reason> directive.
package simblock

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"m3v/internal/analysis"
	"m3v/internal/analysis/callgraph"
)

// Analyzer reports blocking constructs reachable from //m3v:simctx roots.
var Analyzer = &analysis.Analyzer{
	Name: "simblock",
	Doc: `forbid blocking operations reachable from //m3v:simctx roots

Functions annotated //m3v:simctx are simulation-context roots: engine
dispatch, process block/wake, DTU and NoC handlers. Everything statically
reachable from them (including interface implementations and function
values referenced in reachable bodies) runs on the dispatch goroutine and
must not block the wall clock: no time.Sleep/Tick/After, no WaitGroup or
Cond waits, no channel operations, and no os/net I/O. Justified sites
carry an //m3vlint:ignore simblock <reason> directive.`,
	Run:       run,
	RunModule: runModule,
}

// factsKey indexes the per-function facts inside the analyzer's module
// store (the callgraph Builder shares the store under its own key).
const factsKey = "simblock.facts"

// BlockingSyms maps external call symbols to what they block on.
var BlockingSyms = map[string]string{
	"time.Sleep":            "the wall clock",
	"time.Tick":             "the wall clock",
	"time.After":            "the wall clock",
	"time.AfterFunc":        "the wall clock",
	"time.NewTicker":        "the wall clock",
	"time.NewTimer":         "the wall clock",
	"(sync.WaitGroup).Wait": "goroutine completion",
	"(sync.Cond).Wait":      "a condition variable",
}

// IOPkgs lists packages whose mere use inside the simulation context is a
// finding: host I/O has no place in simulated time.
var IOPkgs = map[string]bool{
	"os":      true,
	"os/exec": true,
	"net":     true,
	"syscall": true,
}

// A blockWitness is one channel-level blocking construct in a body.
type blockWitness struct {
	pos  token.Pos
	desc string
}

// fnFact is the per-function record the module pass consumes.
type fnFact struct {
	simctx bool
	blocks []blockWitness
}

func run(pass *analysis.Pass) (interface{}, error) {
	b := callgraph.Collect(pass)
	facts, _ := pass.Store[factsKey].(map[*callgraph.Node]*fnFact)
	if facts == nil {
		facts = map[*callgraph.Node]*fnFact{}
		pass.Store[factsKey] = facts
	}
	for _, f := range pass.Files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			obj, _ := pass.TypesInfo.Defs[fd.Name].(*types.Func)
			node := b.NodeOf(obj)
			if node == nil {
				continue
			}
			facts[node] = &fnFact{
				simctx: analysis.HasMarker(fd, analysis.SimCtxMarker),
				blocks: chanOps(pass, fd.Body),
			}
			ast.Inspect(fd.Body, func(n ast.Node) bool {
				lit, ok := n.(*ast.FuncLit)
				if !ok {
					return true
				}
				if ln := b.LitOf(lit); ln != nil {
					facts[ln] = &fnFact{blocks: chanOps(pass, lit.Body)}
				}
				return true
			})
		}
	}
	return nil, nil
}

// chanOps collects the channel-level blocking constructs of one body,
// excluding nested function literals (they are call-graph nodes of their
// own and are only reported if themselves reachable).
func chanOps(pass *analysis.Pass, body *ast.BlockStmt) []blockWitness {
	var out []blockWitness
	var walk func(n ast.Node) bool
	walk = func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.FuncLit:
			return false
		case *ast.SendStmt:
			out = append(out, blockWitness{pos: n.Arrow, desc: "channel send"})
		case *ast.UnaryExpr:
			if n.Op == token.ARROW {
				out = append(out, blockWitness{pos: n.OpPos, desc: "channel receive"})
			}
		case *ast.SelectStmt:
			out = append(out, blockWitness{pos: n.Select, desc: "select statement"})
		case *ast.RangeStmt:
			if t := pass.TypesInfo.TypeOf(n.X); t != nil {
				if _, ok := t.Underlying().(*types.Chan); ok {
					out = append(out, blockWitness{pos: n.For, desc: "range over channel"})
				}
			}
		}
		return true
	}
	ast.Inspect(body, walk)
	return out
}

// --- module pass: reachability ----------------------------------------------

func runModule(mp *analysis.ModulePass) (interface{}, error) {
	facts, _ := mp.Store[factsKey].(map[*callgraph.Node]*fnFact)
	if facts == nil {
		return nil, nil
	}
	g := callgraph.Finalize(mp.Store)

	// Breadth-first reachability from every root; each node is reported
	// against the first root that reaches it. Node and edge order are
	// deterministic, so so is the attribution.
	from := map[*callgraph.Node]*callgraph.Node{}
	var queue []*callgraph.Node
	enqueue := func(n, root *callgraph.Node) {
		if n == nil || from[n] != nil {
			return
		}
		from[n] = root
		queue = append(queue, n)
	}
	for _, n := range g.Nodes() {
		if f := facts[n]; f != nil && f.simctx {
			enqueue(n, n)
		}
	}
	for len(queue) > 0 {
		n := queue[0]
		queue = queue[1:]
		root := from[n]
		name := n.RelString(n.PkgPath)
		rootName := root.RelString(n.PkgPath)
		if f := facts[n]; f != nil {
			for _, w := range f.blocks {
				mp.Reportf(w.pos,
					"%s inside the simulation context in %s (reachable from //m3v:simctx root %s); "+
						"move the wait out of the simulation context or justify with an ignore directive",
					w.desc, name, rootName)
			}
		}
		for _, e := range n.Calls {
			if e.InPanic {
				continue // failure path: the simulation is already over
			}
			switch e.Kind {
			case callgraph.KindStatic:
				if e.Callee.External() {
					if why := blockingCall(e.Callee); why != "" {
						mp.Reportf(e.Pos,
							"call to %s blocks on %s in %s (reachable from //m3v:simctx root %s)",
							e.Callee.Sym, why, name, rootName)
					} else if IOPkgs[e.Callee.PkgPath] || strings.HasPrefix(e.Callee.PkgPath, "net/") {
						mp.Reportf(e.Pos,
							"call to %s performs host I/O in %s (reachable from //m3v:simctx root %s)",
							e.Callee.Sym, name, rootName)
					}
					continue
				}
				enqueue(e.Callee, root)
			case callgraph.KindInterface:
				for _, impl := range g.Impls(e) {
					enqueue(impl, root)
				}
			case callgraph.KindDynamic:
				// Not followed; Refs cover function values that escape into
				// reachable bodies.
			}
		}
		for _, r := range n.Refs {
			if !r.External() {
				enqueue(r, root)
			}
		}
	}
	return nil, nil
}

// blockingCall names what an external callee blocks on, or "".
func blockingCall(n *callgraph.Node) string {
	return BlockingSyms[n.Sym]
}
