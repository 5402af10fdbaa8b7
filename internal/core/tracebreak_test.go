package core

import (
	"strings"
	"testing"
	"time"

	"cloudbench/internal/trace"
)

// TestTraceBreakdownSmoke runs the trace grid end to end at -short scale
// with enough replication factors for FT2's RF ≥ 3 series to exist.
func TestTraceBreakdownSmoke(t *testing.T) {
	o := SmokeOptions()
	o.ReplicationFactors = []int{1, 3, 4}
	res, err := RunTraceBreakdown(o)
	if err != nil {
		t.Fatal(err)
	}
	if want := len(traceCells(o)); len(res) != want {
		t.Fatalf("cells = %d, want %d", len(res), want)
	}
	for _, f := range CheckTrace(res) {
		t.Log(f)
		if !f.Pass {
			t.Errorf("finding failed: %s", f)
		}
	}
	// Every cell served traffic and decomposed both halves of the 50/50
	// workload.
	for _, m := range res {
		if m.Runtime <= 0 {
			t.Errorf("empty cell %s/%s/rf%d", m.DB, m.Level, m.RF)
		}
		for _, class := range []string{"read", "update"} {
			cs := m.Trace.Class(class)
			if cs == nil || cs.Ops == 0 || len(cs.Phases) == 0 {
				t.Errorf("cell %s/%s/rf%d: class %s undecomposed", m.DB, m.Level, m.RF, class)
			}
		}
	}
	out := res.Table().String()
	for _, want := range []string{"share-%", "phase-p50", "read-repair", "coord-queue", "HBase", "writeALL"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q", want)
		}
	}
}

// synthTrace builds a synthetic grid: HBase control cells (storage-only
// reads, WAL-paying updates) plus Cassandra CL=ONE cells whose read
// read-repair shares are given per RF.
func synthTrace(rfs []int, repairShares []float64) TraceResults {
	var res TraceResults
	for _, rf := range rfs {
		res = append(res, CellResult{DB: "HBase", Level: "strong", RF: rf, Runtime: 1,
			Trace: trace.Report{Classes: []trace.ClassStat{
				{Class: "read", Ops: 100, Total: time.Second, Phases: []trace.PhaseStat{
					{Phase: "storage", Count: 100, Total: time.Second / 2, Share: 0.5},
				}},
				{Class: "update", Ops: 100, Total: time.Second, Phases: []trace.PhaseStat{
					{Phase: "wal", Count: 100, Total: time.Second / 4, Share: 0.25},
				}},
			}}})
	}
	for i, rf := range rfs {
		res = append(res, CellResult{DB: "Cassandra", Level: "ONE", RF: rf, Runtime: 1,
			Trace: trace.Report{Classes: []trace.ClassStat{
				{Class: "read", Ops: 100, Total: time.Second, Phases: []trace.PhaseStat{
					{Phase: "fanout", Count: 200, Total: time.Second / 5, Share: 0.2},
					{Phase: "read-repair", Count: 100, Share: repairShares[i]},
				}},
				{Class: "update", Ops: 100, Total: time.Second, Phases: []trace.PhaseStat{
					{Phase: "storage", Count: 300, Total: time.Second / 2, Share: 0.5},
				}},
			}}})
	}
	return res
}

// TestCheckTraceShape exercises the findings checker on synthetic grids,
// independent of the simulator.
func TestCheckTraceShape(t *testing.T) {
	rfs := []int{1, 3, 4}

	good := synthTrace(rfs, []float64{0.3, 0.5, 0.6})
	for _, f := range CheckTrace(good) {
		if !f.Pass {
			t.Errorf("good grid failed %s: %s", f.ID, f.Detail)
		}
	}

	// A plateau across the RF ≥ 3 points breaks FT2.
	plateau := synthTrace(rfs, []float64{0.3, 0.5, 0.5})
	if f := findingByID(CheckTrace(plateau), "FT2"); f == nil || f.Pass {
		t.Error("FT2 passed on a non-increasing repair-share series")
	}

	// Fan-out spans on an HBase read break FT1.
	fanout := synthTrace(rfs, []float64{0.3, 0.5, 0.6})
	cs := fanout[0].Trace.Class("read")
	cs.Phases = append(cs.Phases, trace.PhaseStat{Phase: "fanout", Count: 1})
	if f := findingByID(CheckTrace(fanout), "FT1"); f == nil || f.Pass {
		t.Error("FT1 passed with HBase read fan-out spans")
	}

	// WAL spans on the Cassandra update path break FT3.
	wal := synthTrace(rfs, []float64{0.3, 0.5, 0.6})
	cs = wal[len(wal)-1].Trace.Class("update")
	cs.Phases = append(cs.Phases, trace.PhaseStat{Phase: "wal", Count: 1})
	if f := findingByID(CheckTrace(wal), "FT3"); f == nil || f.Pass {
		t.Error("FT3 passed with Cassandra WAL spans")
	}
}
