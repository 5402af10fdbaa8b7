package core

import (
	"testing"
	"time"

	"cloudbench/internal/consistency"
	"cloudbench/internal/objstore"
)

// TestSpectrumCellsCanonicalOrder pins the grid enumeration the CSV and
// the bit-identity gates depend on.
func TestSpectrumCellsCanonicalOrder(t *testing.T) {
	o := SmokeOptions()
	cells := spectrumCells(o)
	// Per workload: HBase + 3 Cassandra levels + read-quorum + RF sweep +
	// extra intervals; then one fault cell per interval.
	perWorkload := 1 + 3 + 1 + len(o.ReplicationFactors) + len(o.SpectrumReplIntervals) - 1
	want := 2*perWorkload + len(o.SpectrumReplIntervals)
	if len(cells) != want {
		t.Fatalf("spectrumCells = %d cells, want %d", len(cells), want)
	}
	if cells[0].db != "HBase" || cells[0].spec.Name != "read-latest" {
		t.Fatalf("first cell = %s/%s, want HBase/read-latest", cells[0].db, cells[0].spec.Name)
	}
	last := cells[len(cells)-1]
	if last.fault != failHold || last.db != "ObjStore" ||
		last.interval != o.SpectrumReplIntervals[len(o.SpectrumReplIntervals)-1] {
		t.Fatalf("last cell = %+v, want the slowest-interval fault cell", last)
	}
	for _, c := range cells {
		if c.db == "ObjStore" && c.interval == 0 {
			t.Fatalf("objstore cell without interval: %+v", c)
		}
		if c.db == "ObjStore" && c.ack != consistency.AckAsync {
			t.Fatalf("objstore cell without AckAsync oracle: %+v", c)
		}
		if c.fault != noFault && (c.fault != failHold || c.spec.Name != "read-update" || c.mode != objstore.ReadOne) {
			t.Fatalf("fault cell = %+v, want read-update/read-one", c)
		}
	}
}

// TestSpectrumSmoke runs the full grid at smoke scale and checks the
// qualitative findings hold end to end.
func TestSpectrumSmoke(t *testing.T) {
	o := SmokeOptions()
	results, err := RunSpectrum(o)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != len(spectrumCells(o)) {
		t.Fatalf("results = %d, want %d", len(results), len(spectrumCells(o)))
	}
	for _, m := range results {
		if m.Runtime <= 0 || m.Consistency.Reads == 0 {
			t.Errorf("cell %s/%s/%s rf%d: throughput=%.0f reads=%d — did not run",
				m.DB, m.Workload, m.Level, m.RF, m.Runtime, m.Consistency.Reads)
		}
		if m.DB == "ObjStore" && m.Consistency.WritesAcked == 0 {
			t.Errorf("objstore cell %s/%s rf%d: no writes observed", m.Workload, m.Level, m.RF)
		}
	}
	if testing.Verbose() {
		t.Log("\n" + results.Table().String())
	}
	for _, f := range CheckSpectrum(o, results) {
		t.Log(f.String())
		if !f.Pass {
			t.Errorf("finding %s failed: %s", f.ID, f.Detail)
		}
	}
}

// TestSpectrumObjstoreAsyncAccounting: the oracle attached to an
// object-store cell runs under AckAsync semantics, so backwards reads
// explained by in-flight replication surface as async regressions, never
// monotonicity violations.
func TestSpectrumObjstoreAsyncAccounting(t *testing.T) {
	o := SmokeOptions()
	res, err := runCell(o, objstoreCell(o, objstore.ReadOne, 3, 500*time.Millisecond, auditSpecs(o)[0]))
	if err != nil {
		t.Fatal(err)
	}
	if res.Consistency.MonotonicViolations != 0 {
		t.Errorf("monotonic violations = %d under AckAsync, want 0 (async regressions = %d)",
			res.Consistency.MonotonicViolations, res.Consistency.AsyncRegressions)
	}
}
