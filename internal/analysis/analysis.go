// Package analysis is gillis-vet's stdlib-only static-analysis framework:
// a package loader built on go/parser + go/types + go/importer, a small
// Analyzer/Pass API in the spirit of golang.org/x/tools/go/analysis, and
// deterministic diagnostic reporting with //gillis:allow suppression.
//
// The suite keeps only analyzers whose violation nothing else in CI
// catches; DESIGN.md §9 records, per analyzer ever shipped, the mutation
// that decided it. Today that is nodeterm alone: a wall-clock budget in a
// simnet-clocked package changes outputs only on a host slow enough to hit
// it, so every golden passes on the machine that pins them.
//
// Suppression: a finding is silenced by a comment
//
//	//gillis:allow <analyzer>[,<analyzer>...] <one-line justification>
//
// placed on the flagged line or on the line directly above it. The
// analyzer field accepts a comma-separated list so one comment can justify
// findings from several analyzers. The justification is mandatory by
// convention (the analyzers cannot judge prose, but reviewers can), and
// TestAllowSitesPinned lists every suppression in the module, so a new one
// edits that pin in review.
package analysis

import (
	"cmp"
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"
	"strings"
)

// An Analyzer is one named check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in //gillis:allow
	// comments. Lowercase, no spaces.
	Name string
	// Doc is a one-paragraph description of the invariant enforced.
	Doc string
	// Run inspects one package and reports findings through the pass.
	Run func(*Pass)
}

// A Pass carries one analyzer's view of one loaded package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed non-test sources, sorted by file name.
	Files []*ast.File
	// Pkg is the type-checked package. Path() is the import path; packages
	// under a testdata/src directory are remapped to the path after
	// "testdata/src/" so analyzers see realistic paths in tests.
	Pkg  *types.Package
	Info *types.Info

	diags *[]Diagnostic
}

// Reportf records a finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

// String renders the canonical "file:line:col: analyzer: message" form.
func (d Diagnostic) String() string {
	return fmt.Sprintf("%s:%d:%d: %s: %s", d.Pos.Filename, d.Pos.Line, d.Pos.Column, d.Analyzer, d.Message)
}

// allowDirective is the magic comment prefix recognized for suppression.
const allowDirective = "//gillis:allow "

// Run applies every analyzer to every package, drops findings suppressed by
// //gillis:allow comments, and returns the remainder in deterministic order
// (file, line, column, analyzer, message).
func Run(pkgs []*Package, analyzers []*Analyzer) []Diagnostic {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		allowed := allowLines(pkg)
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    new([]Diagnostic),
			}
			a.Run(pass)
			for _, d := range *pass.diags {
				if suppressed(allowed, d) {
					continue
				}
				diags = append(diags, d)
			}
		}
	}
	slices.SortFunc(diags, func(a, b Diagnostic) int {
		return cmp.Or(
			strings.Compare(a.Pos.Filename, b.Pos.Filename),
			cmp.Compare(a.Pos.Line, b.Pos.Line),
			cmp.Compare(a.Pos.Column, b.Pos.Column),
			strings.Compare(a.Analyzer, b.Analyzer),
			strings.Compare(a.Message, b.Message))
	})
	return diags
}

// allowKey locates one suppression: a file line that carries an allow
// comment for one analyzer.
type allowKey struct {
	file     string
	line     int
	analyzer string
}

// allowLines collects every //gillis:allow directive in the package, keyed
// by the line the comment sits on. The analyzer field is a comma-separated
// list, so `//gillis:allow nodeterm,other <reason>` registers one
// suppression per named analyzer. The directive must be followed by a
// space: `//gillis:allownodeterm` names nothing.
func allowLines(pkg *Package) map[allowKey]bool {
	allowed := make(map[allowKey]bool)
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				rest, ok := strings.CutPrefix(c.Text, allowDirective)
				if !ok {
					continue
				}
				fields := strings.Fields(rest)
				if len(fields) == 0 {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				for _, name := range strings.Split(fields[0], ",") {
					if name == "" {
						continue
					}
					allowed[allowKey{pos.Filename, pos.Line, name}] = true
				}
			}
		}
	}
	return allowed
}

// suppressed reports whether d is covered by an allow comment on its own
// line or the line directly above.
func suppressed(allowed map[allowKey]bool, d Diagnostic) bool {
	return allowed[allowKey{d.Pos.Filename, d.Pos.Line, d.Analyzer}] ||
		allowed[allowKey{d.Pos.Filename, d.Pos.Line - 1, d.Analyzer}]
}

// pkgNameOf resolves sel's qualifier to the imported package path, or ""
// when sel.X is not a package name (e.g. a field or method selector).
func pkgNameOf(info *types.Info, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pn, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	return pn.Imported().Path()
}

// hasPathPrefix reports whether the package import path is path itself or a
// subpackage of it.
func hasPathPrefix(pkgPath, prefix string) bool {
	return pkgPath == prefix || strings.HasPrefix(pkgPath, prefix+"/")
}
