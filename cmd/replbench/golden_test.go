package main

import (
	"crypto/sha256"
	"encoding/binary"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"cloudbench/internal/core"
)

// update rewrites the smoke CSV goldens instead of comparing against them:
//
//	go test ./cmd/replbench -run TestSmokeCSVGolden -update
//
// Regenerate only when a change moves output on purpose, and say so in
// CHANGES.md and EXPERIMENTS.md.
var update = flag.Bool("update", false, "rewrite testdata/golden from the current build")

// TestSmokeCSVGolden pins each experiment's smoke CSV report to a
// committed golden. The other determinism gates compare one build with
// itself across worker or shard counts; this one compares the build with
// the output of an earlier commit, so a refactor that shifts every
// configuration at once still shows up as a diff. The wall-clock trailer
// is stripped as in capture.
func TestSmokeCSVGolden(t *testing.T) {
	experiments := []string{
		"table1", "fig1", "fig2", "fig3", "audit", "spectrum", "tracebreak",
		"geo", "failover", "sla", "ablation-a1", "ablation-a2", "ablation-a3",
	}
	slow := map[string]bool{"fig3": true, "failover": true}
	for _, experiment := range experiments {
		t.Run(experiment, func(t *testing.T) {
			if testing.Short() && slow[experiment] {
				t.Skip("slow experiment; skipped under -short")
			}
			got := capture(t, "-experiment", experiment, "-profile", "smoke", "-csv", "-seed", "42")
			path := filepath.Join("testdata", "golden", experiment+".csv")
			if *update {
				if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("%v (regenerate with -update)", err)
			}
			if got != string(want) {
				t.Errorf("%s report differs from %s:\n%s", experiment, path, firstDiff(string(want), got))
			}
		})
	}
}

// TestTraceSpansGolden pins the raw span stream of the span-retaining
// tracebreak cell to a committed SHA-256. TestTraceBitIdentical compares
// one build with itself; this compares the build with an earlier commit,
// so a change that moves span IDs, order or timing shows up even when
// every summary CSV stays the same. Regenerate with -update only when the
// stream moves on purpose.
func TestTraceSpansGolden(t *testing.T) {
	o := core.SmokeOptions()
	o.Seed = 42
	o.ReplicationFactors = []int{3}
	_, spans, err := core.RunTraceSpans(o, 50_000)
	if err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	var buf []byte
	for _, s := range spans {
		buf = buf[:0]
		buf = binary.LittleEndian.AppendUint64(buf, s.ID)
		buf = binary.LittleEndian.AppendUint64(buf, s.Parent)
		buf = append(buf, byte(s.Class), byte(s.Phase))
		if s.Root {
			buf = append(buf, 1)
		} else {
			buf = append(buf, 0)
		}
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(s.Node)))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Proc))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Start))
		buf = binary.LittleEndian.AppendUint64(buf, uint64(s.End))
		h.Write(buf)
	}
	got := fmt.Sprintf("%x %d\n", h.Sum(nil), len(spans))
	path := filepath.Join("testdata", "golden", "tracespans.sha256")
	if *update {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if got != string(want) {
		t.Errorf("span stream hash and count = %q, %s holds %q", got, path, want)
	}
}
