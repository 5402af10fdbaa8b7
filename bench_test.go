package cloudbench_test

// One benchmark per table and figure of the paper, plus the ablations
// DESIGN.md calls out. Each benchmark executes the corresponding
// experiment end to end on the simulated testbed and reports the headline
// numbers through b.ReportMetric: simulated throughput (simops/s), mean
// latency (ms), and — where relevant — the ratio the paper's finding
// hinges on. Wall-clock ns/op measures the simulator itself.
//
// Replication factors are reduced to {1,6} here so the full suite runs in
// minutes; `go run ./cmd/replbench -experiment all` sweeps 1–6.

import (
	"math/rand"
	"testing"

	"cloudbench/internal/consistency"
	"cloudbench/internal/core"
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
	"cloudbench/internal/trace"
	"cloudbench/internal/ycsb"
)

func benchOptions() core.Options {
	if testing.Short() {
		// CI's bench smoke (-benchtime=1x -short) only proves every
		// benchmark still runs; smoke scale keeps the whole suite under a
		// minute.
		return core.SmokeOptions()
	}
	o := core.QuickOptions()
	o.ReplicationFactors = []int{1, 6}
	return o
}

// BenchmarkTable1Workloads drives each Table 1 workload mix through the
// generator layer, verifying the published ratios and measuring generator
// throughput.
func BenchmarkTable1Workloads(b *testing.B) {
	if err := core.VerifyTable1(); err != nil {
		b.Fatal(err)
	}
	for _, spec := range ycsb.StressWorkloads(10_000) {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			w := ycsb.NewWorkload(spec)
			r := rand.New(rand.NewSource(1))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				op := w.NextOp(r)
				if op.Type == ycsb.OpInsert {
					w.Ack(op)
				}
			}
		})
	}
}

// BenchmarkFig1Micro regenerates the micro benchmark for replication: one
// sub-benchmark per (database, replication factor), reporting the four
// atomic-operation latencies in microseconds of simulated time.
func BenchmarkFig1Micro(b *testing.B) {
	o := benchOptions()
	for _, db := range []string{"HBase", "Cassandra"} {
		for _, rf := range o.ReplicationFactors {
			db, rf := db, rf
			b.Run(benchName(db, "rf", rf), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					opts := o
					opts.ReplicationFactors = []int{rf}
					opts.Seed = int64(i + 1)
					res, err := core.RunFig1Round(opts, db, rf)
					if err != nil {
						b.Fatal(err)
					}
					for _, m := range res {
						b.ReportMetric(float64(m.Mean.Microseconds()), m.Op+"-µs")
					}
				}
			})
		}
	}
}

// BenchmarkFig2Stress regenerates the stress benchmark for replication:
// one sub-benchmark per (database, replication factor), reporting each
// Table 1 workload's peak runtime throughput in simulated ops/s.
func BenchmarkFig2Stress(b *testing.B) {
	o := benchOptions()
	for _, db := range []string{"HBase", "Cassandra"} {
		for _, rf := range o.ReplicationFactors {
			db, rf := db, rf
			b.Run(benchName(db, "rf", rf), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					opts := o
					opts.Seed = int64(i + 1)
					res, err := core.RunFig2Round(opts, db, rf)
					if err != nil {
						b.Fatal(err)
					}
					for _, m := range res {
						b.ReportMetric(m.Throughput, m.Workload+"-simops/s")
					}
				}
			})
		}
	}
}

// BenchmarkFig3Consistency regenerates the stress benchmark for
// consistency: one sub-benchmark per consistency level, reporting each
// workload's runtime throughput at the capacity target.
func BenchmarkFig3Consistency(b *testing.B) {
	o := benchOptions()
	o.Fig3TargetFractions = []float64{1.0}
	for _, lv := range core.Levels() {
		lv := lv
		b.Run(lv.Name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := o
				opts.Seed = int64(i + 1)
				res, err := core.RunFig3Level(opts, lv)
				if err != nil {
					b.Fatal(err)
				}
				for _, m := range res {
					if m.Target == 0 {
						b.ReportMetric(m.Runtime, m.Workload+"-simops/s")
					}
				}
			}
		})
	}
}

// BenchmarkAblationReadRepair quantifies A1: Cassandra micro read latency
// at RF 6 with read repair on versus off.
func BenchmarkAblationReadRepair(b *testing.B) {
	o := benchOptions()
	for _, mode := range []struct {
		name   string
		chance float64
	}{{"on", o.ReadRepairChance}, {"off", 0}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := o
				opts.ReadRepairChance = mode.chance
				opts.Seed = int64(i + 1)
				res, err := core.RunFig1Round(opts, "Cassandra", 6)
				if err != nil {
					b.Fatal(err)
				}
				for _, m := range res {
					if m.Op == "read" {
						b.ReportMetric(float64(m.Mean.Microseconds()), "read-µs")
					}
				}
			}
		})
	}
}

// BenchmarkAblationHBaseSyncRepl quantifies A2: HBase micro update latency
// at RF 6 with in-memory versus synchronous replication.
func BenchmarkAblationHBaseSyncRepl(b *testing.B) {
	o := benchOptions()
	for _, mode := range []struct {
		name string
		mem  bool
	}{{"in-memory", true}, {"synchronous", false}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := o
				opts.MemReplication = mode.mem
				opts.Seed = int64(i + 1)
				res, err := core.RunFig1Round(opts, "HBase", 6)
				if err != nil {
					b.Fatal(err)
				}
				for _, m := range res {
					if m.Op == "update" {
						b.ReportMetric(float64(m.Mean.Microseconds()), "update-µs")
					}
				}
			}
		})
	}
}

// BenchmarkAblationClientThreads quantifies A3: intended latency at a
// fixed offered load versus client thread count.
func BenchmarkAblationClientThreads(b *testing.B) {
	o := benchOptions()
	for _, threads := range []int{2, 8, 32} {
		threads := threads
		b.Run(benchName("threads", "", threads), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				opts := o
				opts.Seed = int64(i + 1)
				fig, err := core.AblationClientThreads(opts, []int{threads}, 3000)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(fig.Series[0].Y[0], "intended-µs")
			}
		})
	}
}

// BenchmarkConsistencyAudit runs the full consistency-audit grid at smoke
// scale, reporting the headline stale-read percentage of the deepest
// CL=ONE cell next to the simulator's wall-clock cost.
func BenchmarkConsistencyAudit(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := core.SmokeOptions()
		o.Seed = int64(i + 1)
		res, err := core.RunConsistencyAudit(o)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range res {
			if m.DB == "Cassandra" && m.Level == "ONE" && m.Workload == "read-update" && !m.Fault && m.RF == 3 {
				b.ReportMetric(100*m.Consistency.StaleFraction(), "stale-%")
			}
		}
	}
}

// BenchmarkSpectrum runs the three-backend replication-spectrum grid at
// smoke scale, reporting the async object store's headline visibility
// cost on the read-update anchor cell (async/read-one, RF 3, fastest
// anti-entropy interval): the stale-read percentage and the p99 time to
// all-replica visibility.
func BenchmarkSpectrum(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := core.SmokeOptions()
		o.Seed = int64(i + 1)
		res, err := core.RunSpectrum(o)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range res {
			if m.DB == "ObjStore" && m.Level == "async/read-one" && m.Workload == "read-update" &&
				!m.Fault && m.RF == 3 && m.ReplInterval == o.SpectrumReplIntervals[0] {
				b.ReportMetric(100*m.Consistency.StaleFraction(), "stale-%")
				b.ReportMetric(float64(m.Consistency.TVisAllP99.Microseconds())/1000, "tvis-p99-ms")
			}
		}
	}
}

// BenchmarkGeo runs the multi-DC geo-replication grid at smoke scale,
// reporting the SLA cell's headline trade: the fixed EACH_QUORUM client's
// write p99 over the 80 ms WAN versus the adaptive client's write p99 and
// staleness under the same 40 ms deadline.
func BenchmarkGeo(b *testing.B) {
	for i := 0; i < b.N; i++ {
		o := core.SmokeOptions()
		o.Seed = int64(i + 1)
		res, err := core.RunGeo(o)
		if err != nil {
			b.Fatal(err)
		}
		for _, m := range res {
			switch m.Mode {
			case "sla-fixed":
				b.ReportMetric(float64(m.WriteP99.Microseconds())/1000, "fixed-p99-ms")
			case "sla-adaptive":
				b.ReportMetric(float64(m.WriteP99.Microseconds())/1000, "adaptive-p99-ms")
				b.ReportMetric(100*m.Consistency.StaleFraction(), "adaptive-stale-%")
			}
		}
	}
}

// BenchmarkOracleHooks measures the per-event cost of the consistency
// oracle's write/read hooks, and — on the nil receiver, which is how the
// databases run in every performance experiment — proves the disabled
// hooks cost zero allocations (allocs/op must be 0 for the nil case).
func BenchmarkOracleHooks(b *testing.B) {
	for _, mode := range []struct {
		name   string
		oracle *consistency.Oracle
	}{{"nil", nil}, {"attached", consistency.New()}} {
		mode := mode
		b.Run(mode.name, func(b *testing.B) {
			o := mode.oracle
			o.BeginMeasure(0)
			key := kv.Key("user42")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ver := kv.Version(i + 1)
				at := sim.Time(i)
				o.WriteBegin(key, ver, 3, at)
				o.ReplicaApply(key, ver, 0, consistency.ApplyWrite, at)
				o.WriteAck(key, ver, at)
				o.ReadObserved(-1, key, ver, at)
			}
		})
	}
}

// TestDetachedOracleHooksZeroAlloc pins down the invariant the hookguard
// analyzer and the nil-gated call sites exist for: with the oracle
// detached (nil, as in every performance experiment), the full
// write/read hook sequence behind its `!= nil` guard must not allocate
// and must not evaluate its arguments' allocating subexpressions.
func TestDetachedOracleHooksZeroAlloc(t *testing.T) {
	var oracle *consistency.Oracle // detached
	key := kv.Key("user42")
	ver := kv.Version(7)
	allocs := testing.AllocsPerRun(1000, func() {
		// The exact call-site shape the databases use (and hookguard
		// enforces): gate once, then fire the lifecycle hooks.
		if oracle != nil {
			at := sim.Time(1)
			oracle.WriteBegin(key, ver, 3, at)
			oracle.ReplicaApply(key, ver, 0, consistency.ApplyWrite, at)
			oracle.WriteAck(key, ver, at)
			oracle.ReadObserved(-1, key, ver, at)
			oracle.BeginMeasure(at)
		}
	})
	if allocs != 0 {
		t.Fatalf("detached-oracle hook path allocated %.1f allocs/op, want 0", allocs)
	}
}

// TestAttachedOracleRegisterDetach exercises attach → observe → detach:
// an attached oracle sees the traffic, and re-detaching restores the
// zero-cost path.
func TestAttachedOracleRegisterDetach(t *testing.T) {
	oracle := consistency.New()
	cid := oracle.RegisterClient()
	key := kv.Key("user1")
	at := sim.Time(1)
	oracle.BeginMeasure(0)
	oracle.WriteBegin(key, 1, 1, at)
	oracle.ReplicaApply(key, 1, 0, consistency.ApplyWrite, at)
	oracle.WriteAck(key, 1, at)
	oracle.ReadObserved(cid, key, 1, at+1)
	rep := oracle.Report()
	if rep.Reads == 0 {
		t.Fatalf("attached oracle recorded no reads: %+v", rep)
	}
	oracle = nil // detach
	allocs := testing.AllocsPerRun(100, func() {
		if oracle != nil {
			oracle.ReadObserved(cid, key, 1, at)
		}
	})
	if allocs != 0 {
		t.Fatalf("post-detach hook path allocated %.1f allocs/op, want 0", allocs)
	}
}

// benchTracerHooks drives the exact nil-gated tracer call-site shape the
// YCSB runner and database read paths use — root span open/close around
// a queue-wait and a storage phase — once per iteration inside a sim
// process.
func benchTracerHooks(b *testing.B, tr *trace.Tracer) {
	k := sim.NewKernel(11)
	k.Spawn("driver", func(p *sim.Proc) {
		tr.BeginMeasure(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			var t0 sim.Time
			if tr != nil {
				tr.StartOp(p, trace.ClassRead)
				t0 = p.Now()
			}
			if tr != nil {
				tr.Interval(p, trace.PhaseCoordQueue, 1, t0, t0)
				tr.Phase(p, trace.PhaseStorage, 1, t0)
				tr.EndOp(p)
			}
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkTracerDisabled measures the tracing hooks on the YCSB read
// path with tracing off — how every performance experiment runs. The
// nil-gated sites must cost one predicted branch each: allocs/op must be
// 0 (pinned by TestDisabledTracerHooksZeroAlloc in internal/trace and by
// the hotpath analyzer on the runner).
func BenchmarkTracerDisabled(b *testing.B) {
	benchTracerHooks(b, nil)
}

// BenchmarkTracerEnabled measures the same call sites with a tracer
// attached: the per-op cost of a root span plus two phase spans, all
// aggregation in fixed-bucket histograms. The delta against
// BenchmarkTracerDisabled is the price of turning tracing on.
func BenchmarkTracerEnabled(b *testing.B) {
	benchTracerHooks(b, trace.New())
}

// BenchmarkSweepParallel measures the wall-clock of the same Fig. 2 sweep
// executed sequentially (workers-1) and fanned out across the sweep
// scheduler (workers-4). The results are bit-identical either way (see
// TestParallelSweepDeterminism); on a 4-core runner the 4-worker run should
// be ≥3× faster since the sweep's 4 cells are independent simulations.
func BenchmarkSweepParallel(b *testing.B) {
	for _, workers := range []int{1, 4} {
		workers := workers
		b.Run(benchName("workers", "", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := benchOptions()
				o.Parallelism = workers
				o.StressRecords = 1_500
				o.StressOps = 2_500
				o.Seed = int64(i + 1)
				if _, err := core.RunFig2(o); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkMegaScale measures deployment-scale scaling on the sharded
// kernel: the 512-node, RF-3, million-session megascale Cassandra
// deployment (DESIGN §14) split into 1, 2, 4, and 8 segments, each on its
// own member kernel with WAN-chain delivery floors between them. Total
// nodes, sessions, and ops are fixed, so wall-clock ns/op across the
// sub-benchmarks is the engine's scaling curve at deployment scale —
// `make bench-scale` records it (together with GOMAXPROCS and CPU count,
// which the curve is meaningless without) in BENCH_scale.json. -short
// swaps in the smoke cell so CI can prove the path cheaply.
func BenchmarkMegaScale(b *testing.B) {
	for _, shards := range []int{1, 2, 4, 8} {
		shards := shards
		b.Run("shards="+itoa(shards), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				o := core.DefaultMegaScaleOptions()
				if testing.Short() {
					o = core.MegaSmokeOptions()
				}
				o.Shards = shards
				o.Seed = int64(i + 1)
				res, err := core.RunMegaScale(o)
				if err != nil {
					b.Fatal(err)
				}
				if res.Errors != 0 {
					b.Fatalf("%d errors", res.Errors)
				}
				b.ReportMetric(float64(res.Sessions), "sessions")
				b.ReportMetric(res.Throughput, "simops/s")
				b.ReportMetric(float64(res.Windows), "windows")
			}
		})
	}
}

// BenchmarkKernelSleep measures the kernel's Sleep/dispatch hot path in
// isolation — the per-event cost under every simulated client thread and
// server stage. allocs/op must stay ~0: the event free list and the
// per-process wake closure are what keep Sleep-heavy workloads (millions
// of events per sweep cell) off the allocator.
func BenchmarkKernelSleep(b *testing.B) {
	k := sim.NewKernel(1)
	stop := false
	for i := 0; i < 16; i++ {
		k.Spawn("sleeper", func(p *sim.Proc) {
			for !stop {
				p.Sleep(25)
			}
		})
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.RunUntil(sim.Time((i + 1) * 1_000)); err != nil {
			b.Fatal(err)
		}
	}
	stop = true
	b.StopTimer()
	_ = k.RunUntil(sim.Time((b.N + 2) * 1_000))
}

// BenchmarkSimKernel measures the raw event throughput of the simulation
// kernel itself — the substrate cost under everything above.
func BenchmarkSimKernel(b *testing.B) {
	k := sim.NewKernel(1)
	r := sim.NewResource(k, "r", 4)
	stop := false
	for i := 0; i < 16; i++ {
		k.Spawn("worker", func(p *sim.Proc) {
			for !stop {
				r.Use(p, 100)
				p.Sleep(50)
			}
		})
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := k.RunUntil(sim.Time((i + 1) * 10_000)); err != nil {
			b.Fatal(err)
		}
	}
	stop = true
	b.StopTimer()
	_ = k.RunUntil(sim.Time((b.N + 2) * 10_000))
}

// BenchmarkEndToEndOps measures full-stack simulated operations per
// wall-clock second for each database at RF 3 — the simulator's headline
// cost metric.
func BenchmarkEndToEndOps(b *testing.B) {
	for _, db := range []string{"HBase", "Cassandra"} {
		db := db
		b.Run(db, func(b *testing.B) {
			o := benchOptions()
			o.MicroOps = int64(b.N)
			if o.MicroOps < 1000 {
				o.MicroOps = 1000
			}
			res, err := core.RunFig1Round(o, db, 3)
			if err != nil {
				b.Fatal(err)
			}
			var tput float64
			for _, m := range res {
				if m.Op == "read" {
					tput = m.Throughput
				}
			}
			b.ReportMetric(tput, "simops/s")
		})
	}
}

func benchName(a, sep string, n int) string {
	if sep == "" {
		return a + "-" + itoa(n)
	}
	return a + "/" + sep + itoa(n)
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
