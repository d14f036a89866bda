package main

import (
	"bytes"
	"strings"
	"testing"
)

func runVet(t *testing.T, args ...string) (string, int) {
	t.Helper()
	var buf bytes.Buffer
	code, err := run(args, &buf)
	if err != nil {
		t.Fatalf("run(%v): %v", args, err)
	}
	return buf.String(), code
}

func TestList(t *testing.T) {
	out, code := runVet(t, "-list")
	if code != 0 {
		t.Fatalf("exit %d, want 0", code)
	}
	if !strings.HasPrefix(out, "nodeterm ") || strings.Count(out, "\n") != 1 {
		t.Errorf("-list output is not the one nodeterm line:\n%s", out)
	}
}

func TestCleanPackage(t *testing.T) {
	out, code := runVet(t, "../../internal/par")
	if code != 0 {
		t.Fatalf("exit %d on clean package, output:\n%s", code, out)
	}
	if out != "" {
		t.Fatalf("unexpected output on clean package:\n%s", out)
	}
}

// TestSeededViolation drives the acceptance criterion end to end: a fixture
// package impersonating internal/platform with a time.Now() must fail with
// a file:line diagnostic naming the analyzer.
func TestSeededViolation(t *testing.T) {
	out, code := runVet(t, "../../internal/analysis/testdata/src/gillis/internal/platform")
	if code != 1 {
		t.Fatalf("exit %d on violating package, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "clock.go:14:11: nodeterm: time.Now is nondeterministic") {
		t.Fatalf("missing file:line nodeterm diagnostic:\n%s", out)
	}
	if !strings.Contains(out, "finding(s)") {
		t.Fatalf("missing findings summary:\n%s", out)
	}
}

// TestGitHubAnnotations checks -github emits workflow ::error commands.
func TestGitHubAnnotations(t *testing.T) {
	out, code := runVet(t, "-github",
		"../../internal/analysis/testdata/src/gillis/internal/platform")
	if code != 1 {
		t.Fatalf("exit %d, want 1; output:\n%s", code, out)
	}
	if !strings.Contains(out, "::error file=") || !strings.Contains(out, "line=14,col=11::nodeterm:") {
		t.Fatalf("missing ::error annotation:\n%s", out)
	}
}

func TestLoadError(t *testing.T) {
	var buf bytes.Buffer
	code, err := run([]string{"./no-such-dir"}, &buf)
	if err == nil {
		t.Fatal("expected load error")
	}
	if code != 2 {
		t.Fatalf("exit %d on load error, want 2", code)
	}
}

func TestBadFlag(t *testing.T) {
	var buf bytes.Buffer
	code, err := run([]string{"-definitely-not-a-flag"}, &buf)
	if err == nil || code != 2 {
		t.Fatalf("bad flag: code=%d err=%v, want 2 and an error", code, err)
	}
}
