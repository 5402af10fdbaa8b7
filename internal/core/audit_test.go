package core

import (
	"reflect"
	"strings"
	"testing"

	"cloudbench/internal/consistency"
)

// auditSmokeOptions: the audit grid at -short scale. The full smoke grid
// (2 workloads × (2 HBase + 3×2 Cassandra cells) + 1 fault cell) runs in
// a few seconds of wall clock.
func auditSmokeOptions() Options {
	return SmokeOptions()
}

func TestConsistencyAuditSmoke(t *testing.T) {
	o := auditSmokeOptions()
	res, err := RunConsistencyAudit(o)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(auditCells(o)); len(res) != want {
		t.Fatalf("cells = %d, want %d", len(res), want)
	}
	if lookup(res, CellResult{Fault: true}) == nil {
		t.Fatal("fault cell missing")
	}
	for _, f := range CheckAudit(res) {
		t.Log(f)
		if !f.Pass {
			t.Errorf("finding failed: %s", f)
		}
	}
	// Every cell actually served traffic and measured reads.
	for _, m := range res {
		if m.Runtime <= 0 || m.Consistency.Reads == 0 {
			t.Errorf("empty cell %s/%s/%s/rf%d: tput=%.0f reads=%d",
				m.DB, m.Workload, m.Level, m.RF, m.Runtime, m.Consistency.Reads)
		}
	}
	out := res.Table().String()
	for _, want := range []string{"stale-%", "tvis-q-p50", "mono-viol", "hint-applies", "HBase", "writeALL"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q", want)
		}
	}
}

// TestConsistencyAuditDeterministic: like every sweep, the audit must be
// bit-identical across runs and across scheduler parallelism — the oracle
// subscribes to simulation events only, never wall clock.
func TestConsistencyAuditDeterministic(t *testing.T) {
	o := auditSmokeOptions()
	o.StressOps = 1_500
	o.Parallelism = 1
	a, err := RunConsistencyAudit(o)
	if err != nil {
		t.Fatal(err)
	}
	o.Parallelism = 4
	b, err := RunConsistencyAudit(o)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("audit not deterministic across parallelism:\n%v\nvs\n%v", a, b)
	}
}

// syntheticAudit builds a healthy-grid AuditResults with the given ONE
// stale-read counts per RF (same counts for both workloads), zero staleness
// everywhere else, and a fault cell.
func syntheticAudit(rfs []int, oneStale []int64, faultStale, faultHints int64) AuditResults {
	var res AuditResults
	mk := func(stale int64) consistency.Report {
		return consistency.Report{Reads: 10_000, StaleReads: stale}
	}
	for _, wl := range []string{"read-latest", "read-update"} {
		for _, rf := range rfs {
			res = append(res, CellResult{DB: "HBase", Workload: wl, Level: "strong", RF: rf, Runtime: 1, Consistency: mk(0)})
		}
		for i, rf := range rfs {
			res = append(res, CellResult{DB: "Cassandra", Workload: wl, Level: "ONE", RF: rf, Runtime: 1, Consistency: mk(oneStale[i])})
		}
		for _, lv := range []string{"QUORUM", "writeALL"} {
			for _, rf := range rfs {
				res = append(res, CellResult{DB: "Cassandra", Workload: wl, Level: lv, RF: rf, Runtime: 1, Consistency: mk(0)})
			}
		}
	}
	res = append(res, CellResult{
		DB: "Cassandra", Workload: "read-update", Level: "ONE", RF: rfs[len(rfs)-1], Fault: true, Runtime: 1,
		Consistency: consistency.Report{Reads: 10_000, StaleReads: faultStale, HintApplies: faultHints},
	})
	return res
}

func findingByID(fs []Finding, id string) *Finding {
	for i := range fs {
		if fs[i].ID == id {
			return &fs[i]
		}
	}
	return nil
}

// TestCheckAuditShape exercises the findings checker's monotone-shape and
// zero-staleness logic on synthetic grids, independent of the simulator.
func TestCheckAuditShape(t *testing.T) {
	rfs := []int{1, 2, 3}

	// The expected shape passes all four findings.
	good := syntheticAudit(rfs, []int64{0, 40, 90}, 120, 7)
	for _, f := range CheckAudit(good) {
		if !f.Pass {
			t.Errorf("good grid failed %s: %s", f.ID, f.Detail)
		}
	}

	// A plateau at CL=ONE breaks FA3's strict monotonicity.
	plateau := syntheticAudit(rfs, []int64{0, 40, 40}, 120, 7)
	if f := findingByID(CheckAudit(plateau), "FA3"); f == nil || f.Pass {
		t.Error("FA3 passed on a non-increasing series")
	}

	// Any QUORUM staleness breaks FA2; HBase staleness breaks FA1.
	dirty := syntheticAudit(rfs, []int64{0, 40, 90}, 120, 7)
	for i := range dirty {
		if dirty[i].DB == "Cassandra" && dirty[i].Level == "QUORUM" {
			dirty[i].Consistency.StaleReads = 1
			break
		}
	}
	if f := findingByID(CheckAudit(dirty), "FA2"); f == nil || f.Pass {
		t.Error("FA2 passed with a stale quorum read")
	}
	dirty = syntheticAudit(rfs, []int64{0, 40, 90}, 120, 7)
	dirty[0].Consistency.MonotonicViolations = 1
	if f := findingByID(CheckAudit(dirty), "FA1"); f == nil || f.Pass {
		t.Error("FA1 passed with an HBase monotonic violation")
	}

	// FA4 requires hint replays and at least healthy-level staleness.
	noHints := syntheticAudit(rfs, []int64{0, 40, 90}, 120, 0)
	if f := findingByID(CheckAudit(noHints), "FA4"); f == nil || f.Pass {
		t.Error("FA4 passed without hint replays")
	}
	cleanFault := syntheticAudit(rfs, []int64{0, 40, 90}, 10, 7)
	if f := findingByID(CheckAudit(cleanFault), "FA4"); f == nil || f.Pass {
		t.Error("FA4 passed with the fault cell less stale than healthy")
	}
}
