// Command gillis-vet runs the project's own static analysis over the
// repository. It keeps only the checks no test or make target makes: today
// that is nodeterm, which bans wall-clock reads, unseeded global RNG draws
// and environment lookups in simnet-clocked packages (DESIGN.md §9 has the
// mutation audit behind that choice).
//
// Usage:
//
//	gillis-vet [-list] [-github] [packages...]
//
// Packages are directory patterns ("./...", "./internal/trace"); the
// default is "./...". Exit status is 1 when any diagnostic is reported.
// -github additionally emits GitHub Actions ::error workflow annotations so
// CI findings land inline on the pull request. Findings are suppressed per
// line with a justified `//gillis:allow <analyzer>[,<analyzer>...] <reason>`
// comment.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"gillis/internal/analysis"
)

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gillis-vet:", err)
		os.Exit(2)
	}
	os.Exit(code)
}

// run executes the suite and returns the process exit code: 0 clean, 1 when
// diagnostics were reported.
func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("gillis-vet", flag.ContinueOnError)
	fs.SetOutput(stdout)
	list := fs.Bool("list", false, "list the analyzers and exit")
	github := fs.Bool("github", false, "emit GitHub Actions ::error annotations alongside diagnostics")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	analyzers := analysis.All()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-10s %s\n", a.Name, a.Doc)
		}
		return 0, nil
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := analysis.Load(patterns...)
	if err != nil {
		return 2, err
	}
	diags := analysis.Run(pkgs, analyzers)
	cwd, _ := os.Getwd()
	rel := func(name string) string {
		if r, err := filepath.Rel(cwd, name); err == nil {
			return r
		}
		return name
	}
	for _, d := range diags {
		d.Pos.Filename = rel(d.Pos.Filename)
		fmt.Fprintln(stdout, d.String())
	}
	if *github {
		for _, d := range diags {
			fmt.Fprintf(stdout, "::error file=%s,line=%d,col=%d::%s\n",
				rel(d.Pos.Filename), d.Pos.Line, d.Pos.Column, annotationEscape(d.Analyzer+": "+d.Message))
		}
	}
	if len(diags) > 0 {
		fmt.Fprintf(stdout, "gillis-vet: %d finding(s) in %d package(s)\n", len(diags), len(pkgs))
		return 1, nil
	}
	return 0, nil
}

// annotationEscape applies GitHub Actions workflow-command data escaping.
func annotationEscape(s string) string {
	s = strings.ReplaceAll(s, "%", "%25")
	s = strings.ReplaceAll(s, "\r", "%0D")
	s = strings.ReplaceAll(s, "\n", "%0A")
	return s
}
