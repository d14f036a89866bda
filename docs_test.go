package gillisbench

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
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

// definedTests maps the name of every top-level Test, Benchmark, Fuzz and
// Example function in a _test.go file under root, the separate benchmark
// module included, to the slash-separated directories (relative to root, "."
// for root itself) whose files define it; hidden directories and testdata
// are skipped.
func definedTests(root string) (map[string]map[string]bool, error) {
	names := make(map[string]map[string]bool)
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
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		for _, decl := range f.Decls {
			if fn, ok := decl.(*ast.FuncDecl); ok && fn.Recv == nil && citedName.MatchString(fn.Name.Name) {
				if names[fn.Name.Name] == nil {
					names[fn.Name.Name] = make(map[string]bool)
				}
				names[fn.Name.Name][dir] = true
			}
		}
		return nil
	})
	return names, err
}

// TestDocsCiteDefinedTests fails on every test, benchmark, fuzz target or
// example name a document cites that no _test.go in the repository defines.
func TestDocsCiteDefinedTests(t *testing.T) {
	defined, err := definedTests(".")
	if err != nil {
		t.Fatal(err)
	}
	// A wrong root would pass with nothing to check.
	if !defined["TestDocsCiteDefinedTests"]["."] {
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
				if len(defined[name]) == 0 {
					t.Errorf("%s:%d cites %s, which no _test.go defines", doc, i+1, name)
				}
			}
		}
	}
	if cited == 0 {
		t.Fatal("the documents cite no test")
	}
}

// DESIGN.md makes guarantees — outputs equal bit for bit, reports stable
// byte for byte, runs that cannot deadlock — and each must be a test that
// fails when it is false. §9's claims ledger has one row per guarantee:
//
//	| Claim | Package | Test |
//	| C<n>. what is guaranteed | `dir` | `TestName` |
//
// with the test defined in a _test.go file of that directory. Any other
// paragraph (a run of lines between blank lines, cut again before each list
// item; each line of a fenced block is one) that uses a claimWord must name
// a test or a ledger row (C<n>): one citation does not cover a whole list.
// §2 is the package inventory: every directory under cmd/ and internal/ that
// holds a Go package is listed there, and every path listed exists. A
// reference to a section, "DESIGN §N" in any .go, .md or Makefile of the
// repository or "§N" inside DESIGN.md, names a numbered heading DESIGN.md has.

// claimWord matches the words that make a guarantee.
var claimWord = regexp.MustCompile(`(?i)\b(?:bitwise|bit-identical|bit-exact|bit-equal|bit[- ]for[- ]bit|byte-identical|byte-stable|byte[- ]for[- ]byte|deterministic|reproducible|deadlock)`)

// ledgerRef matches a ledger row's id.
var ledgerRef = regexp.MustCompile(`\bC([0-9]+)\b`)

// ledgerHeader is the header line of the claims ledger.
var ledgerHeader = regexp.MustCompile(`^\|\s*Claim\s*\|\s*Package\s*\|\s*Test\s*\|\s*$`)

// listItem matches the first line of a markdown list item.
var listItem = regexp.MustCompile(`^\s*(?:[-*+]|[0-9]+\.)\s`)

// sectionHeading matches a numbered section's heading.
var sectionHeading = regexp.MustCompile(`^## ([0-9]+)\. `)

// designSectionRef matches a reference to a section of DESIGN.md from another
// file, across a line break and a comment marker.
var designSectionRef = regexp.MustCompile(`DESIGN(?:\.md)?(?:\s|//|#)*§\s?([0-9]+)`)

// sectionRef matches a section reference inside DESIGN.md, where the paper's
// sections are roman (§III-C) and the document's are arabic.
var sectionRef = regexp.MustCompile(`§([0-9]+)`)

// designTree is what the design check reads of the repository besides
// DESIGN.md.
type designTree struct {
	tests   map[string]map[string]bool // test name → directories defining it
	pkgDirs []string                   // directories under cmd/ and internal/ holding a package
	exists  func(path string) bool     // whether a slash path relative to the root exists
}

// docParagraph is a paragraph of a markdown document and its first line.
type docParagraph struct {
	line int
	text string
}

// paragraphs splits a markdown document into runs of lines between blank
// lines, each joined by spaces, and cuts a run again before each list item;
// each line of a fenced block is a paragraph of its own.
func paragraphs(doc string) []docParagraph {
	var out []docParagraph
	var cur []string
	start, fenced := 0, false
	flush := func() {
		if len(cur) > 0 {
			out = append(out, docParagraph{start, strings.Join(cur, " ")})
			cur = nil
		}
	}
	for i, line := range strings.Split(doc, "\n") {
		switch {
		case strings.HasPrefix(line, "```"):
			flush()
			fenced = !fenced
		case fenced:
			out = append(out, docParagraph{i + 1, line})
		case strings.TrimSpace(line) == "":
			flush()
		default:
			if listItem.MatchString(line) {
				flush()
			}
			if len(cur) == 0 {
				start = i + 1
			}
			cur = append(cur, strings.TrimSpace(line))
		}
	}
	flush()
	return out
}

// designSections returns the numbers of DESIGN.md's "## N." headings and a
// finding unless they run 1, 2, … in order.
func designSections(doc string) (map[int]bool, []string) {
	sections := make(map[int]bool)
	var findings []string
	for i, line := range strings.Split(doc, "\n") {
		if m := sectionHeading.FindStringSubmatch(line); m != nil {
			n, _ := strconv.Atoi(m[1])
			if n != len(sections)+1 {
				findings = append(findings, fmt.Sprintf("DESIGN.md:%d: section %d follows section %d", i+1, n, len(sections)))
			}
			sections[n] = true
		}
	}
	return sections, findings
}

// tableCells returns the trimmed cells of a markdown table row, backticks
// removed.
func tableCells(row string) []string {
	cells := strings.Split(strings.Trim(strings.TrimSpace(row), "|"), "|")
	for i, c := range cells {
		cells[i] = strings.Trim(strings.TrimSpace(c), "`")
	}
	return cells
}

// designFindings checks DESIGN.md's text against the repository.
func designFindings(doc string, tree designTree) []string {
	sections, findings := designSections(doc)
	lines := strings.Split(doc, "\n")

	// The ledger: the table under its header line, a paragraph of its own.
	rows := make(map[string]bool)
	ledgerLine := 0
	for i := range lines {
		if !ledgerHeader.MatchString(lines[i]) {
			continue
		}
		ledgerLine = i + 1
		for j := i + 2; j < len(lines) && strings.HasPrefix(lines[j], "|"); j++ {
			at := fmt.Sprintf("DESIGN.md:%d", j+1)
			cells := tableCells(lines[j])
			if len(cells) != 3 {
				findings = append(findings, fmt.Sprintf("%s: a ledger row has %d cells, want 3", at, len(cells)))
				continue
			}
			id := ledgerRef.FindString(cells[0])
			switch {
			case id == "" || !strings.HasPrefix(cells[0], id):
				findings = append(findings, fmt.Sprintf("%s: a ledger claim starts with no id C<n>", at))
			case rows[id]:
				findings = append(findings, fmt.Sprintf("%s: ledger id %s is used twice", at, id))
			}
			rows[id] = true
			if pkg, test := cells[1], cells[2]; !tree.tests[test][pkg] {
				findings = append(findings, fmt.Sprintf("%s: %s: no _test.go in %s defines %s", at, id, pkg, test))
			}
		}
	}
	if len(rows) == 0 {
		findings = append(findings, "DESIGN.md has no claims ledger (a | Claim | Package | Test | table)")
	}

	// Claim paragraphs outside the ledger, and references to rows and
	// sections.
	for _, p := range paragraphs(doc) {
		at := fmt.Sprintf("DESIGN.md:%d", p.line)
		if p.line == ledgerLine {
			continue
		}
		cites := citedName.MatchString(p.text)
		for _, m := range ledgerRef.FindAllString(p.text, -1) {
			if rows[m] {
				cites = true
			} else {
				findings = append(findings, fmt.Sprintf("%s: cites ledger row %s, which the ledger lacks", at, m))
			}
		}
		if w := claimWord.FindString(p.text); w != "" && !cites {
			findings = append(findings, fmt.Sprintf("%s: says %q and names no test and no ledger row", at, w))
		}
		for _, m := range sectionRef.FindAllStringSubmatch(p.text, -1) {
			if n, _ := strconv.Atoi(m[1]); !sections[n] {
				findings = append(findings, fmt.Sprintf("%s: cites §%d, which DESIGN.md lacks", at, n))
			}
		}
	}

	// §2, the package inventory: its first fenced block, one indented path
	// per line.
	listed := make(map[string]bool)
	in2, fenced := false, false
	for i, line := range lines {
		if m := sectionHeading.FindStringSubmatch(line); m != nil {
			in2 = m[1] == "2"
		}
		if !in2 {
			continue
		}
		if strings.HasPrefix(line, "```") {
			if fenced {
				break
			}
			fenced = true
			continue
		}
		if f := strings.Fields(line); fenced && len(f) > 0 && strings.HasPrefix(line, " ") {
			p := strings.TrimSuffix(f[0], "/")
			listed[p] = true
			if !tree.exists(p) {
				findings = append(findings, fmt.Sprintf("DESIGN.md:%d: §2 lists %s, which does not exist", i+1, p))
			}
		}
	}
	for _, dir := range tree.pkgDirs {
		if !listed[dir] {
			findings = append(findings, fmt.Sprintf("DESIGN.md: §2 does not list package %s", dir))
		}
	}
	return findings
}

// sectionRefFindings reports each "DESIGN §N" in a file's text whose section
// DESIGN.md lacks.
func sectionRefFindings(name, text string, sections map[int]bool) []string {
	var findings []string
	for _, m := range designSectionRef.FindAllStringSubmatchIndex(text, -1) {
		if n, _ := strconv.Atoi(text[m[2]:m[3]]); !sections[n] {
			line := strings.Count(text[:m[0]], "\n") + 1
			findings = append(findings, fmt.Sprintf("%s:%d: cites DESIGN §%d, which DESIGN.md lacks", name, line, n))
		}
	}
	return findings
}

// packageDirs returns the slash paths, relative to root, of the directories
// under root/cmd and root/internal that hold a Go package: what `go list
// ./...` reports there.
func packageDirs(root string) ([]string, error) {
	var dirs []string
	for _, top := range []string{"cmd", "internal"} {
		err := filepath.WalkDir(filepath.Join(root, top), func(p string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if strings.HasPrefix(d.Name(), ".") || strings.HasPrefix(d.Name(), "_") || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			if _, err := build.Default.ImportDir(p, 0); err != nil {
				if _, none := err.(*build.NoGoError); none {
					return nil
				}
				return err
			}
			rel, err := filepath.Rel(root, p)
			dirs = append(dirs, filepath.ToSlash(rel))
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	return dirs, nil
}

// TestDesignClaimsNameTests is the design check above, on the repository.
func TestDesignClaimsNameTests(t *testing.T) {
	t.Parallel()
	b, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(b)
	tests, err := definedTests(".")
	if err != nil {
		t.Fatal(err)
	}
	dirs, err := packageDirs(".")
	if err != nil {
		t.Fatal(err)
	}
	// A wrong root would pass with nothing to check.
	if len(dirs) == 0 {
		t.Fatal("found no package under cmd/ or internal/")
	}
	exists := func(p string) bool {
		_, err := os.Stat(filepath.FromSlash(p))
		return err == nil
	}
	findings := designFindings(doc, designTree{tests, dirs, exists})

	sections, _ := designSections(doc)
	refs := 0
	err = filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// Of the hidden directories only .claude and .github hold the
			// project's own files; .git and build outputs are skipped.
			if p != "." && strings.HasPrefix(d.Name(), ".") && d.Name() != ".claude" && d.Name() != ".github" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, ".md") && d.Name() != "Makefile" {
			return nil
		}
		text, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		refs += len(designSectionRef.FindAllIndex(text, -1))
		findings = append(findings, sectionRefFindings(filepath.ToSlash(p), string(text), sections)...)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if refs == 0 {
		t.Fatal("found no DESIGN §N reference in the repository")
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// TestDesignFindingsOnFixture runs the design check on a small document
// holding one of each fault it reports; the list whose first item cites a
// test and whose second makes a claim is only caught item by item.
func TestDesignFindingsOnFixture(t *testing.T) {
	t.Parallel()
	doc := strings.Join([]string{
		"# DESIGN",
		"",
		"## 1. One",
		"",
		"Outputs are bit-identical (C1). A sort is deterministic",
		"(TestSortIsStable).",
		"",
		"Replays are byte-stable.",
		"",
		"See §2 and §4; row C9 does not exist.",
		"",
		"- Replies are bit-identical (TestOutputs).",
		"- Replays are deterministic.",
		"",
		"## 2. Two",
		"",
		"```",
		"gillis/",
		"  internal/a/      package a",
		"  internal/gone/   a package that was deleted",
		"  a deterministic line of code",
		"```",
		"",
		"| Claim | Package | Test |",
		"|---|---|---|",
		"| C1. Outputs are bit-identical | `internal/a` | `TestOutputs` |",
		"| C2. Runs are reproducible | `internal/a` | `TestElsewhere` |",
		"| C1. Again | `internal/a` | `TestOutputs` |",
		"| Untagged | `internal/a` | `TestOutputs` |",
	}, "\n")
	tree := designTree{
		tests: map[string]map[string]bool{
			"TestOutputs":   {"internal/a": true},
			"TestElsewhere": {"internal/b": true},
		},
		pkgDirs: []string{"internal/a", "internal/b"},
		exists:  func(p string) bool { return p == "internal/a" || p == "internal/b" },
	}
	got := designFindings(doc, tree)
	want := []string{
		"DESIGN.md:27: C2: no _test.go in internal/a defines TestElsewhere",
		"DESIGN.md:28: ledger id C1 is used twice",
		"DESIGN.md:29: a ledger claim starts with no id C<n>",
		`DESIGN.md:8: says "byte-stable" and names no test and no ledger row`,
		"DESIGN.md:10: cites ledger row C9, which the ledger lacks",
		"DESIGN.md:10: cites §4, which DESIGN.md lacks",
		`DESIGN.md:13: says "deterministic" and names no test and no ledger row`,
		`DESIGN.md:21: says "deterministic" and names no test and no ledger row`,
		"DESIGN.md:20: §2 lists internal/gone, which does not exist",
		"DESIGN.md:21: §2 lists a, which does not exist",
		"DESIGN.md: §2 does not list package internal/b",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("findings on the fixture:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
	if got := sectionRefFindings("x.go", "// see DESIGN\n// §2 and DESIGN.md §7", map[int]bool{1: true, 2: true}); len(got) != 1 || got[0] != "x.go:2: cites DESIGN §7, which DESIGN.md lacks" {
		t.Errorf("section references of x.go: %q", got)
	}
}

// TestExperimentsMatchBenchPaper holds EXPERIMENTS.md, which is written by
// hand, to BENCH_paper.txt, which `make bench-paper` writes: each table row
// of EXPERIMENTS.md holding a digit must appear cell by cell, in order, among
// the cells of one line of BENCH_paper.txt, with × read as x.
func TestExperimentsMatchBenchPaper(t *testing.T) {
	t.Parallel()
	exp, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	paper, err := os.ReadFile("BENCH_paper.txt")
	if err != nil {
		t.Fatal(err)
	}
	cells := func(row string) []string { return tableCells(strings.ReplaceAll(row, "×", "x")) }
	var lines [][]string
	for _, line := range strings.Split(string(paper), "\n") {
		lines = append(lines, cells(line))
	}
	holds := func(want []string) bool {
		for _, have := range lines {
			i := 0
			for _, c := range have {
				if i < len(want) && c == want[i] {
					i++
				}
			}
			if i == len(want) {
				return true
			}
		}
		return false
	}
	rows := 0
	for i, row := range strings.Split(string(exp), "\n") {
		if !strings.HasPrefix(row, "|") || !strings.ContainsAny(row, "0123456789") {
			continue
		}
		rows++
		if want := cells(row); !holds(want) {
			t.Errorf("EXPERIMENTS.md:%d: no line of BENCH_paper.txt holds %q", i+1, want)
		}
	}
	if rows == 0 {
		t.Fatal("EXPERIMENTS.md has no numeric table row")
	}
}

// Every exported name under internal/ is there for some other code to read:
// one that only tests read is test code in the wrong file, and one that
// nothing reads is dead. TestExportedNamesHaveReaders type-checks the
// non-test files of every package in the tree — cmd/, examples/ and the
// separate benchmark module included — and fails on each exported func,
// method, struct field, type, const or var declared in a non-test file under
// internal/ that no non-test file references. References are matched by
// types.Object identity, an instantiated generic's by its Origin. Two things
// count as read without a reference: a method whose name belongs to an
// interface declared in the tree or to stdInterfaceMethods (it may be called
// through the interface), and everything in the test-support package
// internal/trace/tracetest. There is no other allowlist.

// stdInterfaceMethods are the methods of standard-library interfaces a type
// under internal/ may satisfy and be called through.
var stdInterfaceMethods = map[string]bool{
	"String": true, "GoString": true, "Format": true, "Error": true,
	"Unwrap": true, "Is": true, "As": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "MarshalText": true,
	"UnmarshalText": true, "MarshalBinary": true, "UnmarshalBinary": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"Read": true, "Write": true, "Close": true, "ServeHTTP": true,
}

// exemptPackage is the test-support package, whose exports exist for tests.
const exemptPackage = "internal/trace/tracetest"

// checkedPackage is one type-checked package of a source tree.
type checkedPackage struct {
	dir   string // slash-separated, relative to the tree's root
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// sourceTree type-checks the non-test Go files of every package under a root
// directory. A directory's import path is the module path joined with its
// path under the root, so a nested module whose path follows the same rule
// (benchmark/ is gillis/benchmark) loads as part of the tree. Imports from
// outside the module come from the compiler's export data.
type sourceTree struct {
	module  string
	fset    *token.FileSet
	parsed  map[string][]*ast.File // import path → files
	dirs    map[string]string      // import path → dir
	checked map[string]*checkedPackage
	std     types.Importer
}

// loadSourceTree parses and type-checks every package under root.
// Hidden directories and testdata are skipped below the root.
func loadSourceTree(root, module string) ([]*checkedPackage, *token.FileSet, error) {
	tr := &sourceTree{module: module, fset: token.NewFileSet(),
		parsed: map[string][]*ast.File{}, dirs: map[string]string{}, checked: map[string]*checkedPackage{}}
	external := map[string]bool{}
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(p, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(rel)
		ip := path.Join(module, dir)
		tr.dirs[ip] = dir
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(tr.fset, filepath.Join(p, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			tr.parsed[ip] = append(tr.parsed[ip], f)
			for _, imp := range f.Imports {
				if q, _ := strconv.Unquote(imp.Path.Value); !tr.inModule(q) {
					external[q] = true
				}
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	if tr.std, err = exportDataImporter(tr.fset, external); err != nil {
		return nil, nil, err
	}
	var pkgs []*checkedPackage
	for ip := range tr.parsed {
		cp, err := tr.check(ip)
		if err != nil {
			return nil, nil, err
		}
		pkgs = append(pkgs, cp)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].dir < pkgs[j].dir })
	return pkgs, tr.fset, nil
}

func (tr *sourceTree) inModule(ip string) bool {
	return ip == tr.module || strings.HasPrefix(ip, tr.module+"/")
}

// Import resolves an import of the tree: module packages from source,
// everything else from export data.
func (tr *sourceTree) Import(ip string) (*types.Package, error) {
	if !tr.inModule(ip) {
		return tr.std.Import(ip)
	}
	cp, err := tr.check(ip)
	if err != nil {
		return nil, err
	}
	return cp.types, nil
}

func (tr *sourceTree) check(ip string) (*checkedPackage, error) {
	if cp, ok := tr.checked[ip]; ok {
		if cp == nil {
			return nil, fmt.Errorf("import cycle through %s", ip)
		}
		return cp, nil
	}
	files, ok := tr.parsed[ip]
	if !ok {
		return nil, fmt.Errorf("no package %s in the tree", ip)
	}
	tr.checked[ip] = nil
	info := &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: tr}
	pkg, err := conf.Check(ip, tr.fset, files, info)
	if err != nil {
		return nil, err
	}
	cp := &checkedPackage{dir: tr.dirs[ip], files: files, types: pkg, info: info}
	tr.checked[ip] = cp
	return cp, nil
}

// exportDataImporter imports the given packages from the export data the go
// command builds for them, located by one `go list -export`.
func exportDataImporter(fset *token.FileSet, pkgs map[string]bool) (types.Importer, error) {
	exports := map[string]string{}
	if len(pkgs) > 0 {
		args := []string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}
		for p := range pkgs {
			args = append(args, p)
		}
		var stderr bytes.Buffer
		cmd := exec.Command("go", args...)
		cmd.Stderr = &stderr
		out, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("go list -export: %v: %s", err, stderr.Bytes())
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			if ip, file, ok := strings.Cut(line, " "); ok {
				exports[ip] = file
			}
		}
	}
	return importer.ForCompiler(fset, "gc", func(ip string) (io.ReadCloser, error) {
		file, ok := exports[ip]
		if !ok {
			return nil, fmt.Errorf("no export data for %s", ip)
		}
		return os.Open(file)
	}), nil
}

// unreadExports returns, sorted, "file:line: name" for every exported name
// declared in a non-test file of a package under internal/ of the tree that
// no non-test file of the tree reads (the rule above).
func unreadExports(fset *token.FileSet, pkgs []*checkedPackage) []string {
	read := map[types.Object]bool{}
	ifaceMethods := map[string]bool{}
	markPath := func(t types.Type, index []int) {
		// A promoted selector reads each embedded field it passes through.
		for _, i := range index[:len(index)-1] {
			if p, ok := t.Underlying().(*types.Pointer); ok {
				t = p.Elem()
			}
			f := t.Underlying().(*types.Struct).Field(i)
			read[f.Origin()] = true
			t = f.Type()
		}
	}
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			read[origin(obj)] = true
		}
		for _, sel := range p.info.Selections {
			markPath(sel.Recv(), sel.Index())
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					for _, m := range it.Methods.List {
						for _, name := range m.Names {
							ifaceMethods[name.Name] = true
						}
					}
				}
				return true
			})
		}
	}
	var unread []string
	for _, p := range pkgs {
		if !strings.HasPrefix(p.dir, "internal/") || p.dir == exemptPackage {
			continue
		}
		owners := fieldOwners(p.types)
		scope := p.types.Scope()
		for id, obj := range p.info.Defs {
			if obj == nil || !obj.Exported() || read[obj] {
				continue
			}
			// The name as it is reported: pkg.Name, pkg.T.Method,
			// pkg.(*T).Method or pkg.T.Field.
			qualifier := ""
			switch obj := obj.(type) {
			case *types.Func:
				if recv := obj.Type().(*types.Signature).Recv(); recv != nil {
					if ifaceMethods[obj.Name()] || stdInterfaceMethods[obj.Name()] {
						continue
					}
					qualifier = types.TypeString(recv.Type(), func(*types.Package) string { return "" }) + "."
					if strings.HasPrefix(qualifier, "*") {
						qualifier = "(" + strings.TrimSuffix(qualifier, ".") + ")."
					}
				}
			case *types.Var:
				if !obj.IsField() && obj.Parent() != scope {
					continue
				}
				if obj.IsField() {
					owner, ok := owners[obj]
					if !ok {
						continue // a field of a type declared inside a function
					}
					qualifier = owner + "."
				}
			case *types.TypeName, *types.Const:
				if obj.Parent() != scope {
					continue
				}
			default:
				continue
			}
			name := p.types.Name() + "." + qualifier + obj.Name()
			pos := fset.Position(id.Pos())
			unread = append(unread, fmt.Sprintf("%s:%d: %s", path.Join(p.dir, filepath.Base(pos.Filename)), pos.Line, name))
		}
	}
	sort.Strings(unread)
	return unread
}

// origin maps a field or method of an instantiated generic type to its
// declaration.
func origin(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
}

// fieldOwners names the package-level type that declares each struct field
// of pkg: "T" for a field of T, "T.F" for a field of an anonymous struct in
// T's field F.
func fieldOwners(pkg *types.Package) map[*types.Var]string {
	owners := map[*types.Var]string{}
	var walk func(owner string, t types.Type)
	walk = func(owner string, t types.Type) {
		st, ok := t.(*types.Struct)
		if !ok {
			return
		}
		for i := 0; i < st.NumFields(); i++ {
			f := st.Field(i)
			owners[f] = owner
			walk(owner+"."+f.Name(), f.Type())
		}
	}
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
			walk(name, tn.Type().Underlying())
		}
	}
	return owners
}

// TestExportedNamesHaveReaders fails on every exported name under internal/
// that no non-test code reads.
func TestExportedNamesHaveReaders(t *testing.T) {
	t.Parallel()
	pkgs, fset, err := loadSourceTree(".", "gillis")
	if err != nil {
		t.Fatal(err)
	}
	// A wrong root or module path would pass with nothing to check.
	internal := 0
	for _, p := range pkgs {
		if strings.HasPrefix(p.dir, "internal/") {
			internal++
		}
	}
	if internal < 10 {
		t.Fatalf("loaded %d packages under internal/", internal)
	}
	for _, u := range unreadExports(fset, pkgs) {
		t.Errorf("%s is exported but no non-test code reads it: delete it or move it into a test file", u)
	}
}

// TestUnreadExportsOnFixture runs the scan on testdata/exportscan, where of a
// dead func, a method reached only through an interface, a generic method
// used through an instantiation and a field read through a selector only the
// first has no reader.
func TestUnreadExportsOnFixture(t *testing.T) {
	t.Parallel()
	pkgs, fset, err := loadSourceTree(filepath.Join("testdata", "exportscan"), "fixture")
	if err != nil {
		t.Fatal(err)
	}
	got := unreadExports(fset, pkgs)
	want := []string{"internal/lib/lib.go:6: lib.Dead"}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Errorf("unread exports of the fixture:\n%s\nwant:\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
