package zhuyi

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// unlinkedKept names the functions and methods declared under internal/
// (or unexported in this package) that no binary links but that stay,
// each with the reason. Keys are "pkg.Func" or "pkg.Recv.Method", with
// pkg relative to internal/ ("zhuyi" for this package).
var unlinkedKept = map[string]string{
	// The per-frame perception and occlusion references the optimized
	// step path is compared against (sim's golden legacyRun,
	// sensor_equiv_test, geom_equiv_test, the scenario property tests).
	"perception.Pipeline.ProcessFrame": "per-frame reference the golden legacyRun in sim compares the simulator's perception stage against",
	"perception.Pipeline.WorldModel":   "allocating reference for WorldModelAppend, read by the golden legacyRun",
	"vehicle.FrenetState.ToAgent":      "returning reference for FillAgent, used by the golden legacyRun and the scenario property tests",
	"road.Road.InBounds":               "the scenario property tests' check that every compiled actor starts on the road",
	"sensor.Camera.SeesAgent":          "occlusion reference: the exact visibility test sensor_equiv_test checks RigCones against",
	"sensor.cameraReject":              "occlusion reference, reached from SeesAgent",
	"sensor.Occluded":                  "occlusion reference sensor_equiv_test checks OccludedFrame against",
	"sensor.sightRays":                 "occlusion reference, reached from Occluded",
	"sensor.segmentHitsOBB":            "occlusion reference, reached from Occluded",
	"sensor.AppendVisible":             "occlusion reference, reached from ProcessFrame",
	"sensor.NewFrameCone":              "occlusion reference, reached from ProcessFrame",
	"sensor.FrameCone.CannotSee":       "occlusion reference, reached from ProcessFrame",
	"world.Frame.Set":                  "sensor_equiv_test fills its reference frames through it",
	"geom.OBB.Corners":                 "box reference geom_equiv_test checks Quad against; reached from SeesAgent and segmentHitsOBB",
	"geom.OBB.Contains":                "box reference geom_equiv_test checks Quad against; reached from segmentHitsOBB",
	"geom.OBB.Intersects":              "box reference geom_equiv_test checks Quad against; the golden legacyRun and the scenario property tests detect overlap with it",
	"scenario.Spec.CompileTraced":      "determinism witness: the property tests and search's FuzzSpecMutate compare two compilations' recorded jitter",

	// Public API that only the godoc examples run.
	"core.Estimator.EstimateSnapshot": "the ground-truth-futures estimate ExampleNewEstimator and ExampleUncertainty run",

	// Validation of values a caller builds by hand; tests pin what each rejects.
	"core.Params.Validate":          "checks user-built model parameters",
	"core.Uncertainty.Validate":     "checks user-built uncertainty settings",
	"compute.DemandConfig.Validate": "checks user-built demand configurations",
	"world.Trajectory.Validate":     "checks user-built trajectories",
	"scenario.Validate":             "checks hand-built scenarios",
}

// TestInternalFuncsHaveNonTestCallers builds every binary of the
// repository (the commands, the examples, perfbench and a facade
// program that takes every exported function and method of this
// package) with inlining off, reads their text symbols with go tool nm,
// and fails for each function or method declared in a non-test file
// under internal/, or unexported here, that none of them links. Such
// code is production weight only tests run: delete it, move it into the
// test that uses it, or name it in unlinkedKept with the reason it
// stays.
func TestInternalFuncsHaveNonTestCallers(t *testing.T) {
	repo, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	goBuild(t, bin, repo, "./cmd/...", "./examples/...")
	goBuild(t, bin, filepath.Join(repo, "perfbench"), ".")
	goBuild(t, bin, writeFacadeRoot(t, repo), ".")

	linked := map[string]bool{}
	bins, err := os.ReadDir(bin)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range bins {
		out, err := exec.Command("go", "tool", "nm", filepath.Join(bin, b.Name())).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", b.Name(), err)
		}
		for _, line := range strings.Split(string(out), "\n") {
			f := strings.Fields(line)
			if len(f) >= 3 && (f[1] == "T" || f[1] == "t") {
				linked[symbolKey(strings.Join(f[2:], " "))] = true
			}
		}
	}

	declared := map[string]bool{}
	for _, d := range declaredFuncs(t, repo) {
		declared[d.key] = true
		_, kept := unlinkedKept[d.key]
		switch {
		case !linked[d.sym] && !kept:
			t.Errorf("%s: %s is linked into no binary", d.pos, d.key)
		case linked[d.sym] && kept:
			t.Errorf("%s: %s is in unlinkedKept but a binary links it; drop it from the list", d.pos, d.key)
		}
	}
	keys := make([]string, 0, len(unlinkedKept))
	for key := range unlinkedKept {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if !declared[key] {
			t.Errorf("unlinkedKept names %s, which is not declared", key)
		}
		t.Logf("kept unlinked: %s (%s)", key, unlinkedKept[key])
	}
}

// TestExamplesBuild compiles every example program and runs each
// against its stdout golden in testdata/examples. The examples are main
// packages, so the library's own build does not cover them; this keeps
// them from rotting as the facade and registry evolve.
func TestExamplesBuild(t *testing.T) {
	repo, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	bin := t.TempDir()
	goBuild(t, bin, repo, "./examples/...")

	goldens, _ := filepath.Glob(filepath.Join(repo, "testdata", "examples", "*.txt"))
	examples, _ := filepath.Glob(filepath.Join(repo, "examples", "*", "main.go"))
	if len(goldens) != len(examples) {
		t.Errorf("%d examples but %d goldens in testdata/examples", len(examples), len(goldens))
	}
	for _, ex := range examples {
		name := filepath.Base(filepath.Dir(ex))
		want, err := os.ReadFile(filepath.Join(repo, "testdata", "examples", name+".txt"))
		if err != nil {
			t.Error(err)
			continue
		}
		got, err := exec.Command(filepath.Join(bin, name)).Output()
		if err != nil {
			t.Errorf("example %s: %v", name, err)
			continue
		}
		if !bytes.Equal(got, want) {
			t.Errorf("example %s stdout differs from testdata/examples/%s.txt:\n%s", name, name, got)
		}
	}
}

// TestExamplesUseFacadeOnly fails if an example program or
// example_test.go imports an internal/ package, which no other module
// could do: the examples are written to be copied.
func TestExamplesUseFacadeOnly(t *testing.T) {
	files, _ := filepath.Glob(filepath.Join("examples", "*", "*.go"))
	fset := token.NewFileSet()
	for _, file := range append(files, "example_test.go") {
		f, err := parser.ParseFile(fset, file, nil, parser.ImportsOnly)
		if err != nil {
			t.Fatal(err)
		}
		for _, im := range f.Imports {
			if p, _ := strconv.Unquote(im.Path.Value); strings.HasPrefix(p, "repro/internal/") {
				t.Errorf("%s imports %s; examples use the repro facade only", fset.Position(im.Pos()), p)
			}
		}
	}
}

// goBuild builds the packages args name, from dir, into bin with
// inlining off, so every function a binary calls keeps its symbol.
func goBuild(t *testing.T, bin, dir string, args ...string) {
	t.Helper()
	cmd := exec.Command("go", append([]string{"build", "-gcflags=all=-l", "-o", bin + string(filepath.Separator)}, args...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build %s in %s: %v\n%s", strings.Join(args, " "), dir, err, out)
	}
}

// writeFacadeRoot writes a main module that requires this one and
// takes the value of every exported function and method declared in
// this package, so the linker treats the public API as a root.
func writeFacadeRoot(t *testing.T, repo string) string {
	t.Helper()
	var src strings.Builder
	src.WriteString("package main\n\nimport (\n\t\"fmt\"\n\t\"os\"\n\n\tzhuyi \"repro\"\n)\n\nvar roots = []any{\n")
	for _, file := range nonTestFiles(t, repo) {
		if file.pkg != "repro" {
			continue
		}
		for _, dcl := range file.f.Decls {
			fd, ok := dcl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() {
				continue
			}
			if fd.Recv == nil {
				fmt.Fprintf(&src, "\tzhuyi.%s,\n", fd.Name.Name)
				continue
			}
			recv := recvName(fd.Recv.List[0].Type)
			if !ast.IsExported(recv) {
				continue
			}
			if _, ptr := fd.Recv.List[0].Type.(*ast.StarExpr); ptr {
				fmt.Fprintf(&src, "\t(*zhuyi.%s).%s,\n", recv, fd.Name.Name)
			} else {
				fmt.Fprintf(&src, "\tzhuyi.%s.%s,\n", recv, fd.Name.Name)
			}
		}
	}
	src.WriteString("}\n\nfunc main() {\n\tif len(os.Args) > 1 {\n\t\tfmt.Println(roots...)\n\t}\n}\n")
	dir := t.TempDir()
	mod := fmt.Sprintf("module facaderoot\n\ngo 1.24\n\nrequire repro v0.0.0\n\nreplace repro => %s\n", strconv.Quote(repo))
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(mod), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// funcDecl is one function or method the linker scan checks.
type funcDecl struct {
	key string // unlinkedKept key: "pkg.Func" or "pkg.Recv.Method"
	sym string // symbolKey of its linker symbol
	pos token.Position
}

// declaredFuncs lists every function and method declared in a non-test
// file under internal/ and every unexported one of this package.
func declaredFuncs(t *testing.T, repo string) []funcDecl {
	var out []funcDecl
	for _, file := range nonTestFiles(t, repo) {
		rel, internal := strings.CutPrefix(file.pkg, "repro/internal/")
		if !internal {
			rel = "zhuyi"
		}
		for _, dcl := range file.f.Decls {
			fd, ok := dcl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" || (!internal && fd.Name.IsExported()) {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				name = recvName(fd.Recv.List[0].Type) + "." + name
			}
			out = append(out, funcDecl{key: rel + "." + name, sym: file.pkg + "." + name, pos: file.fset.Position(fd.Pos())})
		}
	}
	return out
}

// parsedFile is a parsed non-test file with its package import path.
type parsedFile struct {
	pkg  string
	f    *ast.File
	fset *token.FileSet
}

// nonTestFiles parses the non-test files that build on this platform
// in this package's directory and under internal/.
func nonTestFiles(t *testing.T, repo string) []parsedFile {
	t.Helper()
	fset := token.NewFileSet()
	var out []parsedFile
	add := func(file string) error {
		dir, name := filepath.Split(file)
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(repo, filepath.Clean(dir))
		if err != nil {
			return err
		}
		out = append(out, parsedFile{pkg: path.Join("repro", filepath.ToSlash(rel)), f: f, fset: fset})
		return nil
	}
	root, _ := filepath.Glob(filepath.Join(repo, "*.go"))
	for _, file := range root {
		if err := add(file); err != nil {
			t.Fatal(err)
		}
	}
	err := filepath.WalkDir(filepath.Join(repo, "internal"), func(file string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			if err == nil && d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return err
		}
		return add(file)
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// symbolKey normalises a linker symbol to "importpath.Func" or
// "importpath.Recv.Method": it drops type arguments ("[...]"), the
// pointer-receiver parentheses ("(*T)") and the method-value suffix
// ("-fm").
func symbolKey(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	s := strings.TrimSuffix(b.String(), "-fm")
	if i := strings.Index(s, ".(*"); i >= 0 {
		if j := strings.IndexByte(s[i:], ')'); j >= 0 {
			s = s[:i+1] + s[i+3:i+j] + s[i+j+1:]
		}
	}
	return s
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
