package main

import (
	"flag"
	"os"
	"path/filepath"
	"testing"
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
