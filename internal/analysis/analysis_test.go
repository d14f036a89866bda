package analysis

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
)

// TestRunDeterministicOrder checks that diagnostics come out sorted by
// position regardless of the order Run is handed the packages in.
func TestRunDeterministicOrder(t *testing.T) {
	fixture := func(name string) string {
		return filepath.Join("testdata", "src", "gillis", "internal", name)
	}
	pkgs, err := Load(fixture("platform"), fixture("gateway"))
	if err != nil {
		t.Fatal(err)
	}
	forward := Run(pkgs, All())
	reversed := Run([]*Package{pkgs[1], pkgs[0]}, All())
	if len(forward) == 0 {
		t.Fatal("fixtures produced no diagnostics")
	}
	if len(forward) != len(reversed) {
		t.Fatalf("package order changed finding count: %d vs %d", len(forward), len(reversed))
	}
	for i := range forward {
		if forward[i].String() != reversed[i].String() {
			t.Fatalf("diagnostic %d differs across package orderings:\n%s\n%s", i, forward[i], reversed[i])
		}
	}
	for i := 1; i < len(forward); i++ {
		a, b := forward[i-1].Pos, forward[i].Pos
		if a.Filename > b.Filename || (a.Filename == b.Filename && a.Line > b.Line) {
			t.Fatalf("diagnostics out of order: %s before %s", forward[i-1], forward[i])
		}
	}
}

// TestSuppression checks same-line and line-above allow comments, and that
// an allow for one analyzer does not silence another.
func TestSuppression(t *testing.T) {
	allowed := map[allowKey]bool{
		{"f.go", 10, "nodeterm"}: true,
	}
	mk := func(line int, analyzer string) Diagnostic {
		return Diagnostic{Analyzer: analyzer, Pos: token.Position{Filename: "f.go", Line: line}}
	}
	if !suppressed(allowed, mk(10, "nodeterm")) {
		t.Error("same-line allow not honored")
	}
	if !suppressed(allowed, mk(11, "nodeterm")) {
		t.Error("line-above allow not honored")
	}
	if suppressed(allowed, mk(12, "nodeterm")) {
		t.Error("allow leaked two lines down")
	}
	if suppressed(allowed, mk(10, "other")) {
		t.Error("allow for nodeterm silenced another analyzer")
	}
	if suppressed(allowed, mk(10, "nodeterm")) != true || suppressed(allowed, Diagnostic{Analyzer: "nodeterm", Pos: token.Position{Filename: "g.go", Line: 10}}) {
		t.Error("allow crossed files")
	}
}

// TestAllowListDirective pins the comma-separated form: one directive can
// sanction several analyzers at once, without leaking to unnamed ones.
func TestAllowListDirective(t *testing.T) {
	fset := token.NewFileSet()
	src := `package p

//gillis:allow nodeterm,other one comment for two analyzers
var a = 1

//gillis:allow nodeterm bench probe
var b = 2

//gillis:allow , a bare comma names nothing
var c = 3

//gillis:allownodeterm the directive needs its space
var d = 4
`
	f, err := parser.ParseFile(fset, "f.go", src, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	allowed := allowLines(&Package{Fset: fset, Files: []*ast.File{f}})
	for _, tc := range []struct {
		line     int
		analyzer string
		want     bool
	}{
		{3, "nodeterm", true},
		{3, "other", true},
		{3, "errdrop", false}, // list membership is exact
		{6, "nodeterm", true}, // single-name form unchanged
		{6, "other", false},
		{9, "", false},          // empty names are dropped, not registered
		{12, "nodeterm", false}, // no space: not the directive
	} {
		if got := allowed[allowKey{"f.go", tc.line, tc.analyzer}]; got != tc.want {
			t.Errorf("allow at line %d for %q = %v, want %v", tc.line, tc.analyzer, got, tc.want)
		}
	}
}

// TestAllowSitesPinned lists every //gillis:allow comment in the module's
// non-test sources, build-constrained files and malformed directives
// included. A new suppression has to add itself here, so it is argued in
// review instead of landing beside the line it silences.
func TestAllowSitesPinned(t *testing.T) {
	root, _, err := findModule()
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := expand([]string{filepath.Join(root, "...")})
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	fset := token.NewFileSet()
	for _, dir := range dirs {
		names, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, name := range names {
			if strings.HasSuffix(name, "_test.go") {
				continue
			}
			f, err := parser.ParseFile(fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			rel, err := filepath.Rel(root, name)
			if err != nil {
				t.Fatal(err)
			}
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					if strings.HasPrefix(c.Text, strings.TrimSpace(allowDirective)) {
						got = append(got, filepath.ToSlash(rel)+": "+c.Text)
					}
				}
			}
		}
	}
	want := []string{
		"internal/bench/kernels.go: //gillis:allow nodeterm kernel microbenchmarks measure real wall-clock speed, not simulated time",
		"internal/bench/kernels.go: //gillis:allow nodeterm wall-clock iteration budget for the microbenchmark loop",
		"internal/bench/kernels.go: //gillis:allow nodeterm wall-clock measurement is the quantity being reported",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("suppressions in the module changed; review each and update this pin\n--- got ---\n%s\n--- want ---\n%s",
			strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}

// TestLoadTypecheckFailureReadable checks the loader degrades a broken
// package to a positioned, readable error instead of handing the analyzers
// a half-checked package (where missing type info panics far from the
// cause).
func TestLoadTypecheckFailureReadable(t *testing.T) {
	// Under testdata, so the loader resolves it inside the module.
	dir, err := os.MkdirTemp("testdata", "badtypes-*")
	if err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	src := "package p\n\nfunc f() int { return undefinedIdent }\n"
	if err := os.WriteFile(filepath.Join(dir, "bad.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Load(dir)
	if err == nil {
		t.Fatal("expected a typecheck error")
	}
	msg := err.Error()
	if !strings.Contains(msg, "typecheck") {
		t.Errorf("error does not name the failing stage: %v", err)
	}
	if !strings.Contains(msg, "bad.go") || !strings.Contains(msg, "undefinedIdent") {
		t.Errorf("error lacks position or cause: %v", err)
	}
}

// TestDiagnosticString pins the canonical rendering the CLI prints.
func TestDiagnosticString(t *testing.T) {
	d := Diagnostic{
		Analyzer: "nodeterm",
		Pos:      token.Position{Filename: "x.go", Line: 3, Column: 7},
		Message:  "msg",
	}
	if got, want := d.String(), "x.go:3:7: nodeterm: msg"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestLoadErrors exercises the loader's failure modes.
func TestLoadErrors(t *testing.T) {
	if _, err := Load("testdata/no-such-dir"); err == nil {
		t.Error("expected error for missing directory")
	}
	if _, err := Load("testdata/nodeterm.golden"); err == nil {
		t.Error("expected error for non-directory pattern")
	}
}

// TestLoadSkipsTestdataInWalk checks that "./..." never descends into
// testdata, so fixtures with deliberate violations cannot fail a real run.
func TestLoadSkipsTestdataInWalk(t *testing.T) {
	pkgs, err := Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages from ./..., want just this one", len(pkgs))
	}
	if pkgs[0].Path != "gillis/internal/analysis" {
		t.Fatalf("unexpected package %q", pkgs[0].Path)
	}
	if got := Run(pkgs, All()); len(got) != 0 {
		t.Fatalf("the analysis package itself has findings:\n%v", got)
	}
}

// TestLoadResolvesModuleImports loads a real clocked package whose module
// imports the loader must resolve itself, and checks the tree is clean.
func TestLoadResolvesModuleImports(t *testing.T) {
	pkgs, err := Load("../platform")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 || pkgs[0].Path != "gillis/internal/platform" {
		t.Fatalf("loaded %v, want gillis/internal/platform", pkgs)
	}
	var imported []string
	for _, imp := range pkgs[0].Types.Imports() {
		if hasPathPrefix(imp.Path(), "gillis") {
			imported = append(imported, imp.Path())
		}
	}
	if len(imported) == 0 {
		t.Fatal("platform loaded without its module imports")
	}
	if got := Run(pkgs, All()); len(got) != 0 {
		t.Fatalf("platform has findings:\n%v", got)
	}
}

// TestAllStable checks that the registry is alphabetical, which the -list
// output and the docs rely on.
func TestAllStable(t *testing.T) {
	var names []string
	for _, a := range All() {
		names = append(names, a.Name)
		if a.Doc == "" || a.Run == nil {
			t.Errorf("analyzer %s missing doc or run", a.Name)
		}
	}
	if got, want := strings.Join(names, ","), "nodeterm"; got != want {
		t.Fatalf("All() = %s, want %s", got, want)
	}
}

// TestFileMatchesHost pins the loader's build-constraint filtering: files
// the toolchain would not compile on this host must not reach the
// type-checker.
func TestFileMatchesHost(t *testing.T) {
	otherArch := "arm64"
	if runtime.GOARCH == "arm64" {
		otherArch = "amd64"
	}
	otherOS := "windows"
	if runtime.GOOS == "windows" {
		otherOS = "linux"
	}
	cases := []struct {
		name string
		src  string
		want bool
	}{
		{"plain.go", "package p\n", true},
		{"x_" + runtime.GOARCH + ".go", "package p\n", true},
		{"x_" + otherArch + ".go", "package p\n", false},
		{"x_" + otherOS + ".go", "package p\n", false},
		{"x_noasm.go", "//go:build !" + runtime.GOARCH + "\n\npackage p\n", false},
		{"x_any.go", "//go:build " + runtime.GOARCH + " || " + otherArch + "\n\npackage p\n", true},
		{"x_comment.go", "// just a comment\npackage p\n//go:build " + otherArch + "\n", true},
		{"x_release.go", "//go:build go1.1\n\npackage p\n", true},
		{"x_future.go", "//go:build go1.999\n\npackage p\n", false},
	}
	for _, tc := range cases {
		if got := fileMatchesHost(tc.name, []byte(tc.src)); got != tc.want {
			t.Errorf("fileMatchesHost(%q) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestLoadHonorsBuildConstraints loads packages whose variants declare the
// same symbol behind opposite build tags: per-architecture — exactly the
// gemm dispatch layout in internal/nn — and per-release, where the kept file
// is tagged the way internal/simnet raises its language version. Without
// constraint filtering the type-checker reports a redeclaration; with a
// filter that knows no release tags it finds no Go sources at all.
func TestLoadHonorsBuildConstraints(t *testing.T) {
	for _, tags := range [][2]string{{runtime.GOARCH, "!" + runtime.GOARCH}, {"go1.1", "go1.999"}} {
		// The loader resolves import paths relative to the enclosing module;
		// t.TempDir is outside it, so build the fixture under this package's
		// testdata tree instead.
		dir, err := os.MkdirTemp("testdata", "constraints-*")
		if err != nil {
			t.Fatal(err)
		}
		defer os.RemoveAll(dir)
		for i, tag := range tags {
			src := fmt.Sprintf("//go:build %s\n\npackage p\n\nvar impl = %q\n", tag, tag)
			if err := os.WriteFile(filepath.Join(dir, fmt.Sprintf("impl%d.go", i)), []byte(src), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		pkgs, err := Load(dir)
		if err != nil {
			t.Fatalf("package split on %v failed to load: %v", tags, err)
		}
		if len(pkgs) != 1 || len(pkgs[0].Files) != 1 {
			t.Fatalf("split on %v: want 1 package with 1 file, got %d packages", tags, len(pkgs))
		}
	}
}
