package gillisbench

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// citedDocs are the documents that tell a reader which test or benchmark to
// run for a claim; a renamed or deleted test leaves them pointing at nothing.
var citedDocs = []string{"DESIGN.md", "README.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}

// citedName matches a Go test, benchmark, fuzz target or example name: the
// prefix and then an upper-case letter, a digit or an underscore, so prose
// such as "Testing" or "Examples" is not a citation.
var citedName = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z0-9_][A-Za-z0-9_]*`)

// definedTestNames returns the name of every top-level Test, Benchmark, Fuzz
// and Example function in a _test.go file under root, the separate benchmark
// module included; hidden directories and testdata are skipped.
func definedTestNames(root string) (map[string]bool, error) {
	names := make(map[string]bool)
	fset := token.NewFileSet()
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && citedName.MatchString(fn.Name.Name) {
				names[fn.Name.Name] = true
			}
		}
		return nil
	})
	return names, err
}

// TestDocsCiteDefinedTests fails on every test, benchmark, fuzz target or
// example name a document cites that no _test.go in the repository defines.
func TestDocsCiteDefinedTests(t *testing.T) {
	defined, err := definedTestNames(".")
	if err != nil {
		t.Fatal(err)
	}
	// A wrong root would pass with nothing to check.
	if !defined["TestDocsCiteDefinedTests"] {
		t.Fatal("found no definition of TestDocsCiteDefinedTests itself")
	}
	cited := 0
	for _, doc := range citedDocs {
		b, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for i, line := range strings.Split(string(b), "\n") {
			for _, name := range citedName.FindAllString(line, -1) {
				cited++
				if !defined[name] {
					t.Errorf("%s:%d cites %s, which no _test.go defines", doc, i+1, name)
				}
			}
		}
	}
	if cited == 0 {
		t.Fatal("the documents cite no test")
	}
}
