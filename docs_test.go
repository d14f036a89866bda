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
