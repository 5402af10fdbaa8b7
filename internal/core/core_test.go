package core

import (
	"strings"
	"testing"
	"time"

	"cloudbench/internal/kv"
	"cloudbench/internal/objstore"
	"cloudbench/internal/sim"
	"cloudbench/internal/ycsb"
)

// reducedOptions shrinks the sweep for test budgets while keeping every
// mechanism (GC pauses, read repair, compaction) in play.
func reducedOptions() Options {
	o := QuickOptions()
	o.ReplicationFactors = []int{1, 6}
	o.MicroRecords = 12_000
	o.MicroOps = 14_000
	o.StressRecords = 6_000
	o.StressOps = 20_000
	o.Fig3TargetFractions = []float64{1.0}
	return o
}

// smokeOptions shrinks a sweep to single small cells for `go test -short`:
// every mechanism still runs end to end, but the scale only supports
// plumbing checks (row counts, rendering), not the paper's findings.
func smokeOptions() Options {
	o := QuickOptions()
	o.ReplicationFactors = []int{3}
	o.MicroRecords = 2_000
	o.MicroOps = 3_000
	o.StressRecords = 1_500
	o.StressOps = 2_500
	o.Fig3TargetFractions = []float64{1.0}
	return o
}

func TestVerifyTable1(t *testing.T) {
	if err := VerifyTable1(); err != nil {
		t.Fatal(err)
	}
	out := Table1().String()
	for _, want := range []string{"read-mostly", "Feeds reading", "95/5", "zipfian", "latest"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}

// TestDeployServesTraffic deploys each backend through deploy and serves
// an insert and a read. The object store's anti-entropy daemon runs until
// stopped, so drive returning at all proves the stop hook fires.
func TestDeployServesTraffic(t *testing.T) {
	spec := ycsb.ReadMostly(100)
	for _, c := range []cell{
		{db: "HBase", rf: 3, spec: spec},
		{db: "Cassandra", level: Levels()[1], rf: 3, spec: spec},
		{db: "ObjStore", mode: objstore.ReadOne, rf: 3, interval: 200 * time.Millisecond, spec: spec},
	} {
		t.Run(c.db, func(t *testing.T) {
			d := deploy(reducedOptions(), c)
			err := d.drive(func(p *sim.Proc) {
				cl := d.newClient()
				if err := cl.Insert(p, spec.KeyFor(1), kv.Record{"f": kv.SizedValue(10)}); err != nil {
					t.Error(err)
				}
				if _, err := cl.Read(p, spec.KeyFor(1), nil); err != nil {
					t.Error(err)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestGCStopsWithDriver(t *testing.T) {
	// The drive wrapper must stop GC pause processes or Run never
	// drains; a clean return proves it.
	o := reducedOptions()
	d := deploy(o, cell{db: "Cassandra", level: Levels()[0], rf: 1})
	done := false
	if err := d.drive(func(p *sim.Proc) {
		p.Sleep(3 * time.Second) // several GC cycles
		done = true
	}); err != nil {
		t.Fatal(err)
	}
	if !done || d.gc == nil || d.gc.Pauses == 0 {
		t.Fatalf("gc pauses=%v done=%v", d.gc, done)
	}
}

func TestFig1ReproducesMicroFindings(t *testing.T) {
	if testing.Short() {
		// 1-cell smoke: one database at one RF, plumbing only.
		res, err := RunFig1Round(smokeOptions(), "Cassandra", 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 4 {
			t.Fatalf("smoke results = %d, want 4 ops", len(res))
		}
		if len(res.Figures()) != 4 {
			t.Fatal("smoke figures malformed")
		}
		return
	}
	res, err := RunFig1(reducedOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2*2*4 { // 2 DBs × 2 RFs × 4 ops
		t.Fatalf("results = %d", len(res))
	}
	for _, f := range CheckFig1(res) {
		t.Log(f)
		if !f.Pass {
			t.Errorf("finding failed: %s", f)
		}
	}
	// Rendering sanity.
	figs := res.Figures()
	if len(figs) != 4 {
		t.Fatalf("figures = %d", len(figs))
	}
	if !strings.Contains(figs[0].Table().String(), "HBase") {
		t.Error("figure table missing series")
	}
}

func TestFig2ReproducesStressFindings(t *testing.T) {
	if testing.Short() {
		// 1-cell smoke: one database at one RF, plumbing only.
		res, err := RunFig2Round(smokeOptions(), "HBase", 3)
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 5 {
			t.Fatalf("smoke results = %d, want 5 workloads", len(res))
		}
		if len(res.ThroughputFigures()) != 5 {
			t.Fatal("smoke figures malformed")
		}
		return
	}
	res, err := RunFig2(reducedOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 2*2*5 {
		t.Fatalf("results = %d", len(res))
	}
	for _, f := range CheckFig2(res) {
		t.Log(f)
		if !f.Pass {
			t.Errorf("finding failed: %s", f)
		}
	}
	if len(res.ThroughputFigures()) != 5 || len(res.LatencyFigures()) != 5 {
		t.Error("figure panels missing")
	}
}

func TestFig3ReproducesConsistencyFindings(t *testing.T) {
	if testing.Short() {
		// 1-cell smoke: one workload at one consistency level.
		o := smokeOptions()
		spec := ycsb.StressWorkloads(o.StressRecords)[0]
		res, err := runFig3Workload(o, Levels()[1], spec, []float64{0})
		if err != nil {
			t.Fatal(err)
		}
		if len(res) != 1 || res[0].Level != "QUORUM" || res[0].Runtime <= 0 {
			t.Fatalf("smoke results = %+v", res)
		}
		return
	}
	res, err := RunFig3(reducedOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range CheckFig3(res) {
		t.Log(f)
		// F6a is the documented deviation (see EXPERIMENTS.md); the
		// others must reproduce.
		if !f.Pass && f.ID != "F6a" {
			t.Errorf("finding failed: %s", f)
		}
	}
	if len(res.Figures()) != 5 {
		t.Error("figure panels missing")
	}
}

// ablationSmokeOptions shrinks the micro pipeline further for the -short
// ablation smokes (two 1-RF cells each).
func ablationSmokeOptions() Options {
	o := smokeOptions()
	o.MicroRecords = 1_200
	o.MicroOps = 1_500
	return o
}

func TestAblationHBaseSyncRepl(t *testing.T) {
	if testing.Short() {
		fig, err := AblationHBaseSyncRepl(ablationSmokeOptions())
		if err != nil {
			t.Fatal(err)
		}
		if m := fig.Get("in-memory-replication"); m == nil || len(m.Y) != 1 {
			t.Fatalf("smoke series malformed: %+v", fig)
		}
		return
	}
	o := reducedOptions()
	fig, err := AblationHBaseSyncRepl(o)
	if err != nil {
		t.Fatal(err)
	}
	mem := fig.Get("in-memory-replication")
	sync := fig.Get("synchronous-replication")
	if mem == nil || sync == nil || len(mem.Y) != 2 || len(sync.Y) != 2 {
		t.Fatalf("series malformed: %+v", fig)
	}
	// In-memory replication stays flat; synchronous climbs with RF.
	memGrowth := mem.Y[len(mem.Y)-1] / mem.Y[0]
	syncGrowth := sync.Y[len(sync.Y)-1] / sync.Y[0]
	if syncGrowth <= memGrowth {
		t.Errorf("sync growth %.2f should exceed mem growth %.2f", syncGrowth, memGrowth)
	}
	// At the top RF, sync replication must be slower outright.
	if sync.Y[len(sync.Y)-1] <= mem.Y[len(mem.Y)-1] {
		t.Errorf("sync latency %v not above mem latency %v at max RF",
			sync.Y[len(sync.Y)-1], mem.Y[len(mem.Y)-1])
	}
}

func TestAblationReadRepair(t *testing.T) {
	if testing.Short() {
		fig, err := AblationReadRepair(ablationSmokeOptions())
		if err != nil {
			t.Fatal(err)
		}
		if on := fig.Get("read-repair-on"); on == nil || len(on.Y) != 1 {
			t.Fatalf("smoke series malformed: %+v", fig)
		}
		return
	}
	o := reducedOptions()
	fig, err := AblationReadRepair(o)
	if err != nil {
		t.Fatal(err)
	}
	on := fig.Get("read-repair-on")
	off := fig.Get("read-repair-off")
	if on == nil || off == nil {
		t.Fatal("series missing")
	}
	onGrowth := on.Y[len(on.Y)-1] / on.Y[0]
	offGrowth := off.Y[len(off.Y)-1] / off.Y[0]
	if onGrowth <= offGrowth {
		t.Errorf("read latency growth with repair on (%.2f) should exceed off (%.2f)", onGrowth, offGrowth)
	}
}

func TestAblationClientThreads(t *testing.T) {
	if testing.Short() {
		fig, err := AblationClientThreads(smokeOptions(), []int{8}, 3000)
		if err != nil {
			t.Fatal(err)
		}
		if len(fig.Series[0].Y) != 1 {
			t.Fatalf("smoke series malformed: %+v", fig)
		}
		return
	}
	o := reducedOptions()
	fig, err := AblationClientThreads(o, []int{2, 32}, 3000)
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	if len(s.Y) != 2 {
		t.Fatalf("points = %d", len(s.Y))
	}
	// §3.1: too few threads inflate measured latency at fixed offered
	// load (requests queue inside the client).
	if s.Y[0] <= s.Y[1] {
		t.Errorf("latency with 2 threads (%v) should exceed 32 threads (%v)", s.Y[0], s.Y[1])
	}
}

func TestFindingString(t *testing.T) {
	f := Finding{ID: "F1", Claim: "x", Pass: true, Detail: "d"}
	if !strings.Contains(f.String(), "✓") {
		t.Error("pass mark missing")
	}
	f.Pass = false
	if !strings.Contains(f.String(), "✗") {
		t.Error("fail mark missing")
	}
}
