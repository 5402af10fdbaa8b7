package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestRepoLintsClean is the tier-1 gate for the static invariants: the
// whole module must produce zero non-suppressed diagnostics. A failure
// here means either a genuine invariant violation or a new finding that
// needs an in-place //simlint:ignore with a reason.
func TestRepoLintsClean(t *testing.T) {
	if testing.Short() {
		// Loading and type-checking the full dependency closure takes a
		// few seconds; the golden tests in internal/lint cover -short.
		t.Skip("full-module lint run skipped in -short mode")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"cloudbench/..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("simlint exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	if stdout.Len() != 0 {
		t.Fatalf("expected no diagnostics, got:\n%s", stdout.String())
	}
}

func TestListFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-list"}, &stdout, &stderr); code != 0 {
		t.Fatalf("simlint -list exited %d: %s", code, stderr.String())
	}
	for _, name := range []string{"detwalk", "hookguard", "hotpath", "seedflow", "shardsafe", "blockfree", "ignoreaudit"} {
		if !strings.Contains(stdout.String(), name) {
			t.Errorf("-list output missing analyzer %q:\n%s", name, stdout.String())
		}
	}
}

// TestAnalyzersFlag: unknown names must fail loudly (exit 2), never
// silently skip enforcement.
func TestAnalyzersFlag(t *testing.T) {
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-analyzers", "nosuch"}, &stdout, &stderr); code != 2 {
		t.Fatalf("simlint -analyzers nosuch exited %d, want 2\nstderr: %s", code, stderr.String())
	}
	if !strings.Contains(stderr.String(), "unknown analyzer") {
		t.Errorf("expected unknown-analyzer error, got: %s", stderr.String())
	}
}

// TestJSONReport: -json -ignores over a clean subset yields a parseable
// document with the ignore inventory and timing.
func TestJSONReport(t *testing.T) {
	if testing.Short() {
		t.Skip("full-module load skipped in -short mode")
	}
	var stdout, stderr bytes.Buffer
	if code := run([]string{"-json", "-ignores", "-analyzers", "shardsafe", "cloudbench/..."}, &stdout, &stderr); code != 0 {
		t.Fatalf("simlint -json exited %d\nstdout:\n%s\nstderr:\n%s", code, stdout.String(), stderr.String())
	}
	var rep struct {
		Diagnostics []json.RawMessage `json:"diagnostics"`
		Ignores     []struct {
			Analyzer string
			Checked  bool
			Stale    bool
		} `json:"ignores"`
		ElapsedMS int64 `json:"elapsed_ms"`
	}
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		t.Fatalf("unparseable -json output: %v\n%s", err, stdout.String())
	}
	if len(rep.Diagnostics) != 0 {
		t.Errorf("expected a clean run, got %d diagnostics", len(rep.Diagnostics))
	}
	sawChecked := false
	for _, ig := range rep.Ignores {
		if ig.Analyzer == "shardsafe" && ig.Checked {
			sawChecked = true
			if ig.Stale {
				t.Errorf("shardsafe ignore reported stale on a clean tree")
			}
		}
	}
	if !sawChecked {
		t.Error("expected the megascale remote-read shardsafe ignores in the inventory")
	}
}
