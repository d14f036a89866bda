package analysis

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/build/constraint"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"sort"
	"strings"
)

// A Package is one loaded, parsed, and type-checked package.
type Package struct {
	// Path is the import path. Directories under a "testdata/src" segment
	// are remapped to the path after it, so test fixtures can impersonate
	// real packages (mirroring x/tools' analysistest layout).
	Path string
	// Dir is the package directory on disk.
	Dir   string
	Fset  *token.FileSet
	Files []*ast.File
	Types *types.Package
	Info  *types.Info
}

// Load parses and type-checks the packages matched by patterns. A pattern
// is a directory path, or a directory path ending in "/..." which walks the
// tree beneath it. Directories named "testdata" or starting with "." or "_"
// are skipped during walks (but can be named directly). Only non-test
// sources are loaded: gillis-vet checks shipping code.
//
// Module-internal imports are resolved by the loader itself, so every
// module package is parsed and type-checked exactly once per Load call.
// Standard library imports go through go/importer's source importer.
func Load(patterns ...string) ([]*Package, error) {
	dirs, err := expand(patterns)
	if err != nil {
		return nil, err
	}
	modRoot, modPath, err := findModule()
	if err != nil {
		return nil, err
	}

	fset := token.NewFileSet()
	ld := &loader{
		fset:     fset,
		modRoot:  modRoot,
		modPath:  modPath,
		fallback: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		cache:    make(map[string]*Package),
		loading:  make(map[string]bool),
	}
	var pkgs []*Package
	for _, dir := range dirs {
		pkg, err := ld.loadDir(dir)
		if err != nil {
			return nil, err
		}
		if pkg != nil {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs, nil
}

// expand resolves patterns to a sorted, deduplicated list of candidate
// package directories.
func expand(patterns []string) ([]string, error) {
	seen := make(map[string]bool)
	var dirs []string
	add := func(d string) {
		d = filepath.Clean(d)
		if !seen[d] {
			seen[d] = true
			dirs = append(dirs, d)
		}
	}
	for _, pat := range patterns {
		if root, ok := strings.CutSuffix(pat, "/..."); ok {
			if root == "." || root == "" {
				root = "."
			}
			err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				name := d.Name()
				if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
					return filepath.SkipDir
				}
				add(path)
				return nil
			})
			if err != nil {
				return nil, fmt.Errorf("walk %s: %w", pat, err)
			}
			continue
		}
		fi, err := os.Stat(pat)
		if err != nil {
			return nil, err
		}
		if !fi.IsDir() {
			return nil, fmt.Errorf("pattern %q: not a directory", pat)
		}
		add(pat)
	}
	sort.Strings(dirs)
	return dirs, nil
}

// findModule walks up from the working directory to the enclosing go.mod
// and returns the module root directory and module path.
func findModule() (root, path string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		data, err := os.ReadFile(filepath.Join(dir, "go.mod"))
		if err == nil {
			for _, line := range strings.Split(string(data), "\n") {
				if rest, ok := strings.CutPrefix(strings.TrimSpace(line), "module "); ok {
					return dir, strings.TrimSpace(rest), nil
				}
			}
			return "", "", fmt.Errorf("%s/go.mod: no module line", dir)
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above working directory")
		}
		dir = parent
	}
}

// importPath computes the package's import path from its directory, with
// the testdata/src remapping described on Package.Path.
func importPath(modRoot, modPath, dir string) (string, error) {
	abs, err := filepath.Abs(dir)
	if err != nil {
		return "", err
	}
	rel, err := filepath.Rel(modRoot, abs)
	if err != nil {
		return "", err
	}
	rel = filepath.ToSlash(rel)
	if i := strings.Index(rel+"/", "testdata/src/"); i >= 0 {
		return strings.TrimPrefix(rel[i:], "testdata/src/"), nil
	}
	if rel == "." {
		return modPath, nil
	}
	return modPath + "/" + rel, nil
}

// knownGOOS/knownGOARCH are the targets the filename-suffix convention
// recognizes; the repo only splits on amd64, but the check mirrors the
// toolchain's rule so future ports keep loading correctly.
var knownGOOS = map[string]bool{
	"linux": true, "darwin": true, "windows": true, "freebsd": true,
	"netbsd": true, "openbsd": true, "js": true, "wasip1": true,
}
var knownGOARCH = map[string]bool{
	"amd64": true, "arm64": true, "386": true, "arm": true,
	"riscv64": true, "ppc64le": true, "s390x": true, "wasm": true,
}

// fileMatchesHost reports whether the toolchain would compile this file on
// the host, honouring _GOOS/_GOARCH filename suffixes and //go:build
// expressions. Release tags hold up to the running toolchain's, so a file
// tagged go1.23 to raise its language version is kept. Files excluded by
// build constraints must not reach the type-checker: per-architecture
// variants (gemm_amd64.go vs gemm_noasm.go) declare the same symbols behind
// opposite tags.
func fileMatchesHost(name string, src []byte) bool {
	tagOK := func(tag string) bool {
		return tag == runtime.GOOS || tag == runtime.GOARCH || tag == "gc" || tag == "cgo" ||
			slices.Contains(build.Default.ReleaseTags, tag)
	}
	parts := strings.Split(strings.TrimSuffix(name, ".go"), "_")
	for i := len(parts) - 1; i > 0 && len(parts)-i <= 2; i-- {
		p := parts[i]
		if (knownGOOS[p] || knownGOARCH[p]) && p != runtime.GOOS && p != runtime.GOARCH {
			return false
		}
	}
	// A //go:build line is only valid before the package clause; scanning
	// stops there.
	for _, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		if strings.HasPrefix(line, "package ") {
			break
		}
		if !constraint.IsGoBuild(line) {
			continue
		}
		expr, err := constraint.Parse(line)
		if err != nil {
			continue
		}
		if !expr.Eval(tagOK) {
			return false
		}
	}
	return true
}

// loader parses and type-checks packages, resolving module-internal
// imports itself so each package is checked once. It is handed to go/types
// as the Importer for every check.
type loader struct {
	fset             *token.FileSet
	modRoot, modPath string
	// fallback resolves non-module imports (the standard library).
	fallback types.ImporterFrom
	// cache holds every module package loaded so far, keyed by import path
	// (after testdata/src remapping).
	cache map[string]*Package
	// loading guards against import cycles, which would otherwise recurse
	// forever before the type-checker could diagnose them.
	loading map[string]bool
}

// Import implements types.Importer. go/types calls ImportFrom, which does
// not need the importing directory.
func (ld *loader) Import(path string) (*types.Package, error) {
	return ld.ImportFrom(path, "", 0)
}

// ImportFrom implements types.ImporterFrom. Module-internal paths resolve
// to a directory and load through the shared cache; everything else
// delegates to the source importer.
func (ld *loader) ImportFrom(path, srcDir string, mode types.ImportMode) (*types.Package, error) {
	rest, ok := strings.CutPrefix(path, ld.modPath+"/")
	if !ok {
		return ld.fallback.ImportFrom(path, srcDir, mode)
	}
	dir := filepath.Join(ld.modRoot, filepath.FromSlash(rest))
	pkg, err := ld.loadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("import %q: %w", path, err)
	}
	if pkg == nil {
		return nil, fmt.Errorf("import %q: no Go sources in %s", path, dir)
	}
	return pkg.Types, nil
}

// loadDir parses and type-checks one directory, returning nil when it
// holds no non-test Go sources. Results are cached by import path, so a
// package named both as a pattern and as someone's import is checked once.
func (ld *loader) loadDir(dir string) (*Package, error) {
	path, err := importPath(ld.modRoot, ld.modPath, dir)
	if err != nil {
		return nil, err
	}
	if pkg, ok := ld.cache[path]; ok {
		return pkg, nil
	}
	if ld.loading[path] {
		return nil, fmt.Errorf("import cycle through %q", path)
	}
	ld.loading[path] = true
	defer delete(ld.loading, path)

	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range entries {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		names = append(names, n)
	}
	if len(names) == 0 {
		return nil, nil
	}
	sort.Strings(names)

	var files []*ast.File
	for _, n := range names {
		src, err := os.ReadFile(filepath.Join(dir, n))
		if err != nil {
			return nil, err
		}
		if !fileMatchesHost(n, src) {
			continue
		}
		f, err := parser.ParseFile(ld.fset, filepath.Join(dir, n), src, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil, nil
	}

	info := &types.Info{
		Types: make(map[ast.Expr]types.TypeAndValue),
		Defs:  make(map[*ast.Ident]types.Object),
		Uses:  make(map[*ast.Ident]types.Object),
	}
	conf := types.Config{Importer: ld}
	tpkg, err := conf.Check(path, ld.fset, files, info)
	if err != nil {
		// Degrade to a readable, positioned error instead of propagating a
		// half-checked package into the analyzers (where missing type info
		// panics far from the cause).
		return nil, fmt.Errorf("typecheck %s: %w", dir, err)
	}
	pkg := &Package{Path: path, Dir: dir, Fset: ld.fset, Files: files, Types: tpkg, Info: info}
	ld.cache[path] = pkg
	return pkg, nil
}
