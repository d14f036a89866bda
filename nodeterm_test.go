package gillisbench

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path"
	"path/filepath"
	"reflect"
	"strconv"
	"strings"
	"testing"
)

// One rule keeps the simulation reproducible: nothing under internal/ reads
// ambient state, and wall-clock code lives in cmd/. Everything the internal
// packages compute must be a pure function of seeds and the simnet virtual
// clock; the golden traces, the chaos sweeps and the bitwise kernel tests
// catch most violations, but not a wall-clock budget (say, planner restarts
// that stop after two minutes), which changes outputs only on a host slow
// enough to reach it. TestNodeterm is the check for that.
//
// The check is syntactic. Per file it maps each import's name to its path
// and reports every name.Sel selector whose name is an import of a banned
// package and whose Sel is banned for it, and every dot import of a banned
// package, whose names it could not see. Without type information a local
// variable or parameter that shadows an import name (a `time` variable in a
// file that imports "time") would be a false positive; none exists under
// internal/ today, and renaming it is the fix if one appears.

// nodetermBanned maps an import path to the package-level names that read
// ambient nondeterministic state. For math/rand only the implicit
// global-RNG entry points are banned; rand.New(rand.NewSource(seed)) is the
// blessed pattern.
var nodetermBanned = map[string]map[string]bool{
	"time": {
		"Now": true, "Since": true, "Until": true, "Sleep": true,
		"After": true, "AfterFunc": true, "Tick": true,
		"NewTicker": true, "NewTimer": true,
	},
	"math/rand": {
		"Int": true, "Intn": true, "Int31": true, "Int31n": true,
		"Int63": true, "Int63n": true, "Uint32": true, "Uint64": true,
		"Float32": true, "Float64": true, "NormFloat64": true,
		"ExpFloat64": true, "Perm": true, "Shuffle": true, "Seed": true,
		"Read": true,
	},
	"math/rand/v2": {
		"Int": true, "IntN": true, "Int32": true, "Int32N": true,
		"Int64": true, "Int64N": true, "Uint32": true, "Uint32N": true,
		"Uint64": true, "Uint64N": true, "Float32": true, "Float64": true,
		"NormFloat64": true, "ExpFloat64": true, "Perm": true,
		"Shuffle": true, "N": true,
	},
	"os": {
		"Getenv": true, "LookupEnv": true, "Environ": true,
	},
}

// nodetermFindings returns one "line:col: what" entry per banned use in f.
func nodetermFindings(fset *token.FileSet, f *ast.File) []string {
	var out []string
	report := func(p token.Pos, what string) {
		pos := fset.Position(p)
		out = append(out, fmt.Sprintf("%d:%d: %s", pos.Line, pos.Column, what))
	}
	imports := make(map[string]string) // name in this file -> banned path
	for _, spec := range f.Imports {
		p, err := strconv.Unquote(spec.Path.Value)
		if err != nil || nodetermBanned[p] == nil {
			continue
		}
		name := path.Base(p)
		if p == "math/rand/v2" {
			name = "rand"
		}
		if spec.Name != nil {
			name = spec.Name.Name
		}
		if name == "." {
			report(spec.Pos(), "dot import of "+p)
		}
		imports[name] = p
	}
	ast.Inspect(f, func(n ast.Node) bool {
		sel, ok := n.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); ok {
			if p, ok := imports[x.Name]; ok && nodetermBanned[p][sel.Sel.Name] {
				report(sel.Pos(), p+"."+sel.Sel.Name)
			}
		}
		return true
	})
	return out
}

// TestNodeterm parses every non-test Go file under internal/, whatever its
// build constraints (so both an assembly dispatch and its no-assembly twin
// are read), and fails on each banned use.
func TestNodeterm(t *testing.T) {
	fset := token.NewFileSet()
	simnetFiles := 0
	err := filepath.WalkDir("internal", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if filepath.ToSlash(filepath.Dir(p)) == "internal/simnet" {
			simnetFiles++
		}
		for _, what := range nodetermFindings(fset, f) {
			t.Errorf("%s:%s reads ambient state; nothing under internal/ may (derive it from the Env clock or a seeded *rand.Rand, or move wall-clock code to cmd/)", p, what)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// A wrong root would pass with nothing to check.
	if simnetFiles == 0 {
		t.Fatal("parsed no file in internal/simnet")
	}
}

// TestNodetermFindings pins what the checker reports on small sources.
func TestNodetermFindings(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want []string
	}{
		{"every banned kind", `// Package platform stands in for a simnet-clocked package that reads
// ambient state in every way the check bans: wall-clock reads, a global RNG
// draw and an environment lookup.
package platform

import (
	"math/rand"
	"os"
	"time"
)

// Bad reads ambient nondeterministic state in every way nodeterm bans.
func Bad() time.Duration {
	start := time.Now()        // want: wall-clock read
	n := rand.Intn(10)         // want: global RNG draw
	_ = os.Getenv("GILLIS_XX") // want: environment lookup
	_ = n
	return time.Since(start) // want: wall-clock read
}
`, []string{"14:11: time.Now", "15:7: math/rand.Intn", "16:6: os.Getenv", "18:9: time.Since"}},
		{"seeded RNG and durations", `package platform

import (
	"math/rand"
	"time"
)

func Good(seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	d := 5 * time.Millisecond
	_ = d
	return rng.Float64()
}
`, nil},
		{"aliased import", `package platform

import t "time"

func f() { _ = t.Now() }
`, []string{"5:16: time.Now"}},
		{"rand v2", `package core

import "math/rand/v2"

func f() int { return rand.IntN(3) }
`, []string{"5:23: math/rand/v2.IntN"}},
		{"dot import", `package gateway

import . "time"

func f() { _ = Now() }
`, []string{"3:8: dot import of time"}},
		{"dot import of an allowed package", `package gateway

import . "strings"

func f() bool { return HasPrefix("a", "b") }
`, nil},
		{"method of a local value", `package platform

import "time"

type clock struct{}

func (clock) Now() time.Duration { return time.Millisecond }

func f() time.Duration {
	var c clock
	return c.Now()
}
`, nil},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, "src.go", tc.src, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			if got := nodetermFindings(fset, f); !reflect.DeepEqual(got, tc.want) {
				t.Errorf("findings %q, want %q", got, tc.want)
			}
		})
	}
}
