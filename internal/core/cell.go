package core

import (
	"fmt"
	"time"

	"cloudbench/internal/consistency"
	"cloudbench/internal/geo"
	"cloudbench/internal/objstore"
	"cloudbench/internal/sim"
	"cloudbench/internal/stats"
	"cloudbench/internal/trace"
	"cloudbench/internal/ycsb"
)

// The instrumented cell.
//
// The audit, spectrum, tracebreak and geo experiments are grids of one
// measurement: deploy a database, attach an instrument, load, run one
// workload (optionally under a fault schedule), settle, and snapshot. A
// cell spec names one grid point, runCell performs the measurement, and
// every experiment reports the same labelled CellResult record. The
// performance figures deploy through the same spec but run their own
// multi-phase loops on the deployment.

// cell is one grid point: the database and its placement, the workload
// and client shape, and the instrument and fault schedule of the run.
type cell struct {
	db    string             // "HBase", "Cassandra" or "ObjStore"
	level ConsistencySetting // read/write levels; its Name labels the cell
	rf    int
	// perDC is the NetworkTopologyStrategy allocation of a geo cell (nil
	// for the single rack), over a WAN chain of rtt round trip.
	perDC []int
	rtt   time.Duration
	// mode and interval are the object store's read policy and
	// anti-entropy period.
	mode     objstore.ReadMode
	interval time.Duration
	spec     ycsb.Spec

	loadThreads, threads int
	ops                  int64

	// noGC runs the cell without JVM pauses even when Options.EnableGC.
	noGC bool
	// mutationStage is Cassandra's per-mutation replica-stage jitter
	// (cassandra.Config.MutationStageMeanDelay). The performance figures
	// leave it zero — the fan-out then delivers strictly FIFO and CL=ONE
	// reads can never overtake a pending apply — and the oracle cells set
	// it, because that per-message reordering is the real-world CL=ONE
	// visibility window they measure.
	mutationStage time.Duration
	// ack is the oracle's ack semantics (AckAsync for the object store).
	ack consistency.AckSemantics
	// trace attaches the tracer, keeping up to keepSpans raw spans,
	// instead of the consistency oracle.
	trace     bool
	keepSpans int
	// adaptive wraps every client in the SLA-adaptive ladder.
	adaptive bool
	fault    fault
	// geoMode labels a geo cell in reports: grid, fault, sla-fixed or
	// sla-adaptive.
	geoMode string
}

// fault is a cell's fault schedule. Every schedule strikes a quarter into
// the run, by operation progress, so it lands inside the measured window
// at every profile scale.
type fault int

const (
	noFault fault = iota
	// failRecover fails one server and recovers it at the run's midpoint.
	failRecover
	// failHold fails one server and holds it down for
	// spectrumFaultDowntime of simulated time. Op-based recovery would
	// shrink the outage below the object store's async retry budget at
	// small scales, and the spillover-then-updater path needs the target
	// to stay down past the retries.
	failHold
	// partition cuts the DC 0–1 WAN link and heals it at the midpoint.
	partition
)

// events builds the run's fault events on d.
func (f fault) events(o Options, d *deployment, ops int64) []ycsb.RunEvent {
	switch f {
	case failRecover:
		victim := d.clus.Nodes[o.ServerNodes/2]
		return []ycsb.RunEvent{
			{AfterOps: ops / 4, Fn: victim.Fail},
			{AfterOps: ops / 2, Fn: victim.Recover},
		}
	case failHold:
		victim := d.clus.Nodes[o.ServerNodes/2]
		return []ycsb.RunEvent{{AfterOps: ops / 4, Fn: func() {
			victim.Fail()
			d.k.Go("fault-recover", func(q *sim.Proc) {
				q.Sleep(spectrumFaultDowntime)
				victim.Recover()
			})
		}}}
	case partition:
		return []ycsb.RunEvent{
			{AfterOps: ops / 4, Fn: func() { d.clus.PartitionZones(0, 1) }},
			{AfterOps: ops / 2, Fn: func() { d.clus.HealZones(0, 1) }},
		}
	}
	return nil
}

// settle is how long the cell runs on after its workload: the phase
// quiesce, at least two anti-entropy passes (the object store converges
// per interval), and under a fault long enough for hint replay (default
// interval 10 s) and post-recovery catch-up to drain.
func (c cell) settle() time.Duration {
	s := quiesce
	if 2*c.interval > s {
		s = 2 * c.interval
	}
	if c.fault != noFault && s < auditFaultSettle {
		s = auditFaultSettle
	}
	return s
}

// CellResult is one measured cell, labelled by its grid point. Each
// experiment's table reads the labels and metrics it reports.
type CellResult struct {
	DB       string
	Workload string
	Level    string // consistency setting, objstore read policy, or "adaptive"
	RF       int
	// ReplInterval is the object store's anti-entropy period (zero for the
	// other backends).
	ReplInterval time.Duration
	Fault        bool

	// Geo cells: data centers, WAN RTT, NetworkTopologyStrategy
	// allocation (e.g. "2+2") and report mode.
	DCs   int
	RTT   time.Duration
	PerDC string
	Mode  string

	Runtime   float64 // measured run-phase throughput, ops/s
	Mean      time.Duration
	ReadMean  time.Duration
	ReadP99   time.Duration
	WriteMean time.Duration
	WriteP99  time.Duration
	Errors    int64

	// Consistency is the oracle's report (oracle cells); Trace is the
	// tracer's per-class per-phase decomposition (trace cells).
	Consistency consistency.Report
	Trace       trace.Report

	// Adaptive carries the controller's counters for the adaptive cell
	// (nil elsewhere); AdaptiveStage is its final rung name.
	Adaptive      *geo.Metrics
	AdaptiveStage string

	spans []trace.Span // raw spans retained by a keepSpans trace cell
}

// runCell deploys the cell's database, attaches its instrument, loads,
// runs the workload under the cell's fault schedule, lets repairs,
// replication and hint replay settle, and snapshots the instrument.
func runCell(o Options, c cell) (CellResult, error) {
	d := deploy(o, c)
	var oracle *consistency.Oracle
	var tr *trace.Tracer
	if c.trace {
		tr = trace.New()
	} else {
		oracle = consistency.New()
	}
	if tr != nil {
		if c.keepSpans > 0 {
			tr.KeepSpans(c.keepSpans)
		}
		d.db.SetTracer(tr)
	}
	if oracle != nil {
		oracle.SetAckSemantics(c.ack)
		d.db.SetOracle(oracle)
	}
	out := CellResult{
		DB: c.db, Workload: c.spec.Name, Level: c.level.Name, RF: c.rf,
		ReplInterval: c.interval, Fault: c.fault != noFault, Mode: c.geoMode,
	}
	if c.perDC != nil {
		out.DCs, out.RTT, out.PerDC = len(c.perDC), c.rtt, rfLabel(c.perDC)
	}
	err := d.drive(func(p *sim.Proc) {
		w := ycsb.NewWorkload(c.spec)
		d.loadAndSettle(p, w, c.loadThreads)
		run := c.spec
		run.RecordCount = w.Inserted()
		res := ycsb.Run(p, d.newClient, ycsb.NewWorkload(run), ycsb.RunConfig{
			Threads:        c.threads,
			Ops:            c.ops,
			WarmupFraction: o.WarmupFraction,
			Oracle:         oracle,
			Tracer:         tr,
			Events:         c.fault.events(o, d, c.ops),
		})
		read, write := res.PerOp[ycsb.OpRead], writeHistogram(&res)
		out.Runtime = res.Throughput
		out.Mean = res.MeanLatency()
		out.ReadMean, out.ReadP99 = read.Mean(), read.Percentile(99)
		out.WriteMean, out.WriteP99 = write.Mean(), write.Percentile(99)
		out.Errors = res.Errors
		p.Sleep(c.settle())
	})
	// Snapshot after the settle sleep: the final report (not the runner's
	// end-of-phase snapshot) includes propagation that completed during
	// it — background repairs, hint replay, async forwards — so
	// t-visibility and apply counts are complete; the read-side counters
	// are identical, since no client reads happen after the run.
	if tr != nil {
		out.Trace = tr.Report()
		out.spans = tr.Spans()
	}
	if oracle != nil {
		out.Consistency = oracle.Report()
	}
	if d.ctrl != nil {
		m := d.ctrl.Metrics()
		out.Adaptive = &m
		out.AdaptiveStage = d.ctrl.StageName()
	}
	return out, err
}

// writeHistogram picks the run's mutation histogram: updates for the
// read&update mix, inserts for read-latest.
func writeHistogram(res *ycsb.Result) *stats.Histogram {
	upd, ins := res.PerOp[ycsb.OpUpdate], res.PerOp[ycsb.OpInsert]
	if upd.Count() >= ins.Count() {
		return upd
	}
	return ins
}

// runGrid runs an experiment's cells on the sweep scheduler and returns
// their results in grid order.
func runGrid(o Options, experiment string, cells []cell) ([]CellResult, error) {
	return runCells(o.workers(), len(cells), func(i int) (CellResult, error) {
		c := cells[i]
		res, err := runCell(o, c)
		if err != nil {
			return res, fmt.Errorf("%s cell %d (%s/%s/rf%d): %w", experiment, i, c.db, c.level.Name, c.rf, err)
		}
		return res, nil
	})
}

// lookup returns the first cell of r whose labels match want's. A zero
// label in want matches any value, except Fault, which must match
// exactly: a query that leaves it unset finds healthy cells only.
func lookup(r []CellResult, want CellResult) *CellResult {
	for i := range r {
		m := &r[i]
		if m.Fault == want.Fault &&
			match(want.DB, m.DB) && match(want.Workload, m.Workload) &&
			match(want.Level, m.Level) && match(want.RF, m.RF) &&
			match(want.ReplInterval, m.ReplInterval) && match(want.DCs, m.DCs) &&
			match(want.RTT, m.RTT) && match(want.PerDC, m.PerDC) && match(want.Mode, m.Mode) {
			return m
		}
	}
	return nil
}

// match reports whether got satisfies the lookup label want.
func match[T comparable](want, got T) bool {
	var zero T
	return want == zero || want == got
}

// anchorRF picks the replication factor of an experiment's anchor cells:
// the paper's recommended 3 when the sweep includes it, otherwise the
// largest swept factor (so a healthy counterpart cell always exists).
func anchorRF(o Options) int {
	for _, f := range o.ReplicationFactors {
		if f == 3 {
			return 3
		}
	}
	return o.ReplicationFactors[len(o.ReplicationFactors)-1]
}
