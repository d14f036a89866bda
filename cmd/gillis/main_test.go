package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func runCmd(t *testing.T, args ...string) (string, error) {
	t.Helper()
	var buf bytes.Buffer
	err := run(args, &buf)
	return buf.String(), err
}

func TestUsageErrors(t *testing.T) {
	if _, err := runCmd(t); err == nil {
		t.Fatal("expected usage error")
	}
	if _, err := runCmd(t, "bogus"); err == nil {
		t.Fatal("expected unknown-subcommand error")
	}
	for _, n := range []string{"0", "-3"} {
		if out, err := runCmd(t, "serve", "-model", "rnn3", "-queries", n); err == nil {
			t.Fatalf("-queries %s accepted:\n%s", n, out)
		}
	}
}

func TestInspect(t *testing.T) {
	out, err := runCmd(t, "inspect", "-model", "vgg11")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "vgg11") || !strings.Contains(out, "GFLOPs") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	if _, err := runCmd(t, "inspect", "-model", "nosuch"); err == nil {
		t.Fatal("expected unknown-model error")
	}
}

func TestProfile(t *testing.T) {
	out, err := runCmd(t, "profile", "-platform", "knix")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "invocation overhead") || !strings.Contains(out, "n=16") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestPartitionLatencyOptimal(t *testing.T) {
	out, err := runCmd(t, "partition", "-model", "rnn3", "-platform", "lambda")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "plan for rnn3") || !strings.Contains(out, "predicted latency") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestPartitionSLOAware(t *testing.T) {
	out, err := runCmd(t, "partition", "-model", "rnn3", "-platform", "lambda",
		"-slo", "2000", "-episodes", "200")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "SLO") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestServe(t *testing.T) {
	out, err := runCmd(t, "serve", "-model", "rnn3", "-platform", "lambda", "-queries", "5")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "served 5 queries") {
		t.Fatalf("unexpected output:\n%s", out)
	}
}

func TestExport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "m.glsm")
	out, err := runCmd(t, "export", "-model", "rnn1", "-out", path, "-weights")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "wrote") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	if _, err := runCmd(t, "export", "-model", "rnn1"); err == nil {
		t.Fatal("expected missing -out error")
	}
}

func TestUnknownPlatformRejected(t *testing.T) {
	for _, args := range [][]string{
		{"profile", "-platform", "azure"},
		{"partition", "-model", "rnn1", "-platform", "azure"},
		{"serve", "-model", "rnn1", "-platform", "azure"},
	} {
		if _, err := runCmd(t, args...); err == nil {
			t.Errorf("%v: expected unknown-platform error", args)
		}
	}
}

func TestServeWritesChromeTrace(t *testing.T) {
	path := filepath.Join(t.TempDir(), "trace.json")
	out, err := runCmd(t, "serve", "-model", "rnn3", "-platform", "lambda", "-queries", "2", "-trace", path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "trace written to") {
		t.Fatalf("unexpected output:\n%s", out)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace file is not valid Chrome JSON: %v", err)
	}
	if len(events) < 3 {
		t.Fatalf("suspiciously small trace: %d events", len(events))
	}
}
