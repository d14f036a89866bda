package analysis

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite testdata golden diagnostic files")

// goldenCases maps each analyzer to its fixture packages under
// testdata/src. Fixture directories under "gillis/..." exercise the
// analyzers' import-path gating via the loader's testdata/src remapping.
// golden names the golden file (without extension) when one analyzer has
// several fixtures; empty means the analyzer's own name.
var goldenCases = []struct {
	analyzer *Analyzer
	fixtures []string
	golden   string
}{
	{AnalyzerNodeterm, []string{"gillis/internal/platform"}, ""},
	{AnalyzerNodeterm, []string{"gillis/internal/gateway"}, "nodeterm_gateway"},
	{AnalyzerNodeterm, []string{"gillis/internal/adapt"}, "nodeterm_adapt"},
	{AnalyzerNodeterm, []string{"gillis/internal/batching"}, "nodeterm_batching"},
	{AnalyzerNodeterm, []string{"gillis/internal/mesh"}, "nodeterm_mesh"},
}

// TestGoldenDiagnostics pins each analyzer's findings over its fixture
// package byte-for-byte, the same way the runtime golden trace pins the
// quickstart span tree.
func TestGoldenDiagnostics(t *testing.T) {
	for _, tc := range goldenCases {
		goldenName := tc.golden
		if goldenName == "" {
			goldenName = tc.analyzer.Name
		}
		t.Run(goldenName, func(t *testing.T) {
			var dirs []string
			for _, fx := range tc.fixtures {
				dirs = append(dirs, filepath.Join("testdata", "src", filepath.FromSlash(fx)))
			}
			pkgs, err := Load(dirs...)
			if err != nil {
				t.Fatal(err)
			}
			if len(pkgs) != len(dirs) {
				t.Fatalf("loaded %d packages, want %d", len(pkgs), len(dirs))
			}
			var sb strings.Builder
			for _, d := range Run(pkgs, []*Analyzer{tc.analyzer}) {
				d.Pos.Filename = filepath.Base(d.Pos.Filename)
				sb.WriteString(d.String())
				sb.WriteString("\n")
			}
			got := sb.String()

			goldenPath := filepath.Join("testdata", goldenName+".golden")
			if *updateGolden {
				if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(goldenPath)
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("diagnostics diverge from %s\n--- got ---\n%s--- want ---\n%s", goldenPath, got, want)
			}
		})
	}
}

// TestFixturePathRemap guards the testdata/src import-path remapping the
// golden fixtures rely on.
func TestFixturePathRemap(t *testing.T) {
	pkgs, err := Load(filepath.Join("testdata", "src", "gillis", "internal", "platform"))
	if err != nil {
		t.Fatal(err)
	}
	if got := pkgs[0].Path; got != "gillis/internal/platform" {
		t.Fatalf("remapped path = %q, want gillis/internal/platform", got)
	}
}
