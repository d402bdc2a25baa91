package zhuyi

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// testOnlyKept names the exported functions and methods under internal/
// that no non-test file calls but that stay, each with the reason.
var testOnlyKept = map[string]string{
	"core.Estimator.EstimateSnapshot":  "public API as zhuyi.Estimator's method; example_test.go runs it",
	"core.OfflineResult.CameraSeries":  "public API as zhuyi.OfflineResult's method (Figures 4-6 panels)",
	"core.OfflineResult.AccelSeries":   "public API as zhuyi.OfflineResult's method (Figures 4e-6e)",
	"search.Result.Register":           "public API as zhuyi.SearchResult's method; SearchScenarios' doc names it",
	"scenario.Spec.CompileTraced":      "public API as zhuyi.ScenarioSpec's method; the property tests prove jitter determinism with it",
	"perception.Pipeline.ProcessFrame": "per-frame reference the golden legacyRun in sim compares the simulator's perception stage against",
	"perception.Pipeline.WorldModel":   "allocating reference for WorldModelAppend, read by the golden legacyRun",
	"vehicle.FrenetState.ToAgent":      "returning reference for FillAgent, used by the golden legacyRun and the scenario property tests",
	"road.Road.InBounds":               "the scenario property tests' check that every compiled actor starts on the road",
}

// implicitMethods are method names the standard library calls through
// an interface (fmt, errors, encoding/json, net/http, sort), so a
// method with one of them is called although no selector names it.
var implicitMethods = map[string]bool{
	"String": true, "Error": true,
	"MarshalJSON": true, "UnmarshalJSON": true,
	"ServeHTTP": true,
	"Len":       true, "Less": true, "Swap": true,
}

// TestInternalFuncsHaveNonTestCallers parses every non-test Go file of
// the module (cmd, examples and perfbench included) and fails for each
// exported function or method under internal/ that none of them
// references outside the function's own body. Such code is production
// weight that only tests exercise: delete it, move it into the test
// that uses it, or name it in testOnlyKept with the reason it stays.
//
// The scan is syntactic. A package-level function counts as used when
// a file names it as pkg.Name through an import, or as Name inside its
// own package. A method counts as used when any selector anywhere
// names it, whatever the receiver, so the guard errs toward missing a
// dead method; one the standard library calls through an interface is
// named in implicitMethods.
func TestInternalFuncsHaveNonTestCallers(t *testing.T) {
	type decl struct {
		key string // "pkg.Func" or "pkg.Recv.Method", pkg relative to internal/
		use string // funcUses key of a function, "" for a method
		pos token.Position
	}
	var decls []decl
	funcUses := map[string]bool{}   // "importpath.Name"
	methodUses := map[string]bool{} // "Name"
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(file string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if file != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join("repro", filepath.ToSlash(filepath.Dir(file)))
		imports := map[string]string{}
		for _, im := range f.Imports {
			p, _ := strconv.Unquote(im.Path.Value)
			local := path.Base(p)
			if im.Name != nil {
				local = im.Name.Name
			}
			imports[local] = p
		}
		rel, internal := strings.CutPrefix(pkg, "repro/internal/")
		for _, dcl := range f.Decls {
			var self string // the enclosing declaration's own use key
			var root ast.Node = dcl
			fd, isFunc := dcl.(*ast.FuncDecl)
			if isFunc {
				d := decl{key: rel + "." + fd.Name.Name, pos: fset.Position(fd.Pos())}
				if fd.Recv != nil {
					d.key = rel + "." + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
					self = "." + fd.Name.Name
				} else {
					d.use = pkg + "." + fd.Name.Name
					self = d.use
				}
				if internal && fd.Name.IsExported() {
					decls = append(decls, d)
				}
				if fd.Body == nil {
					continue
				}
				root = fd.Body
			}
			ast.Inspect(root, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok && imports[x.Name] != "" {
						funcUses[imports[x.Name]+"."+n.Sel.Name] = true
						return false
					}
					if self != "."+n.Sel.Name {
						methodUses[n.Sel.Name] = true
					}
				case *ast.Ident:
					if key := pkg + "." + n.Name; key != self {
						funcUses[key] = true
					}
				}
				return true
			})
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	declared := map[string]bool{}
	for _, d := range decls {
		declared[d.key] = true
		name := d.key[strings.LastIndexByte(d.key, '.')+1:]
		used := funcUses[d.use]
		if d.use == "" {
			used = methodUses[name] || implicitMethods[name]
		}
		_, kept := testOnlyKept[d.key]
		switch {
		case !used && !kept:
			t.Errorf("%s: %s has no caller outside _test.go files", d.pos, d.key)
		case used && kept:
			t.Errorf("%s: %s is in testOnlyKept but has a non-test caller; drop it from the list", d.pos, d.key)
		}
	}
	for key := range testOnlyKept {
		if !declared[key] {
			t.Errorf("testOnlyKept names %s, which is not declared", key)
		}
	}
}

// recvName is the type name of a method receiver: T, *T, T[P] or *T[P].
func recvName(x ast.Expr) string {
	for {
		switch e := x.(type) {
		case *ast.StarExpr:
			x = e.X
		case *ast.IndexExpr:
			x = e.X
		case *ast.IndexListExpr:
			x = e.X
		case *ast.Ident:
			return e.Name
		default:
			return ""
		}
	}
}
