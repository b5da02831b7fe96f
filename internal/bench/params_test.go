package bench

import (
	"flag"
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestSystemsBuiltThroughParams is a source guard: every simulated system
// and engine of the harness must come from Params.newSystem or
// newLinuxEngine, and both must attach the canceler. A driver calling
// core.New or sim.NewEngine directly would silently drop -fault-rate and
// -sample-interval (or cancellation) for one experiment.
func TestSystemsBuiltThroughParams(t *testing.T) {
	constructors := map[string]string{
		"m3v/internal/core.New":      "newSystem",
		"m3v/internal/sim.NewEngine": "newLinuxEngine",
	}
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	seen := make(map[string]bool)
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		imports := make(map[string]string) // local name -> import path
		for _, imp := range f.Imports {
			path, _ := strconv.Unquote(imp.Path.Value)
			local := path[strings.LastIndex(path, "/")+1:]
			if imp.Name != nil {
				local = imp.Name.Name
			}
			imports[local] = path
		}
		for _, decl := range f.Decls {
			fn, _ := decl.(*ast.FuncDecl)
			attaches := false
			var built []string
			ast.Inspect(decl, func(n ast.Node) bool {
				sel, ok := n.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				if sel.Sel.Name == "Attach" {
					attaches = true
				}
				if x, ok := sel.X.(*ast.Ident); ok {
					if helper, ok := constructors[imports[x.Name]+"."+sel.Sel.Name]; ok {
						built = append(built, helper)
						pos := fset.Position(sel.Pos())
						if fn == nil || fn.Name.Name != helper {
							t.Errorf("%s: %s.%s outside %s", pos, x.Name, sel.Sel.Name, helper)
						}
					}
				}
				return true
			})
			if len(built) > 0 && fn != nil {
				seen[fn.Name.Name] = true
				if !attaches {
					t.Errorf("%s: %s leaves its engine unattached to the canceler",
						fset.Position(fn.Pos()), fn.Name.Name)
				}
			}
		}
	}
	for _, helper := range constructors {
		if !seen[helper] {
			t.Errorf("helper %s not found: the guard is out of date", helper)
		}
	}
}

// TestBindFlagsFaultRateRange: -fault-rate accepts exactly [0,1]. NaN fails
// both bounds comparisons, so it must be rejected explicitly rather than
// slipping through as a fault-free run.
func TestBindFlagsFaultRateRange(t *testing.T) {
	for _, c := range []struct {
		rate string
		ok   bool
	}{
		{"0", true}, {"0.05", true}, {"1", true},
		{"-0.1", false}, {"1.5", false}, {"NaN", false}, {"+Inf", false},
	} {
		var p Params
		fs := flag.NewFlagSet("t", flag.ContinueOnError)
		validate := p.BindFlags(fs)
		if err := fs.Parse([]string{"-fault-rate", c.rate}); err != nil {
			t.Fatalf("-fault-rate %s: parse: %v", c.rate, err)
		}
		if err := validate(); (err == nil) != c.ok {
			t.Errorf("-fault-rate %s: validate error = %v, want ok=%v", c.rate, err, c.ok)
		}
	}
}
