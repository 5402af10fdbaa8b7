package core

import (
	"fmt"
	"time"

	"cloudbench/internal/consistency"
	"cloudbench/internal/objstore"
	"cloudbench/internal/stats"
	"cloudbench/internal/ycsb"
)

// The replication-spectrum experiment.
//
// The paper's grid stops at Cassandra CL=ONE: the weakest setting it
// measures still replicates synchronously in the request path — the
// coordinator fans the mutation to every replica and waits for one ack, so
// write cost grows with RF and the unacked replicas are already in flight
// when the client resumes. Asynchronous replication, the Swift/Dynamo end
// of the spectrum, acks after a single durable local apply and replicates
// strictly after the ack. This experiment extends the paper's CL axis with
// that third point: the same two staleness-sensitive workloads as the
// consistency audit, over HBase (strong control), Cassandra at
// ONE/QUORUM/writeALL, and the object store across its replication-factor
// and anti-entropy-interval sweeps, reporting throughput, latency tails,
// client-centric staleness, and t-visibility side by side.
//
// The object-store cells attach the oracle under AckAsync semantics: a
// client that reads an older version while the newer write's replication
// is still in flight is reported as an async regression (the priced-in
// visibility cost of ack-before-replicate), not a monotonicity violation.
//
// Expected shape, asserted by CheckSpectrum:
//   - the async ack path decouples write latency from RF: the object
//     store's write tail is flat across the RF sweep while all-replica
//     visibility (TVisAll) keeps growing — replication work still scales
//     with RF, it just moves off the request path;
//   - the visibility cost is real: at the anchor cell the object store's
//     TVisAll tail exceeds Cassandra CL=ONE's, whose fan-out is already in
//     flight at ack time, and its read-one staleness exceeds CL=ONE's;
//   - under fault injection the anti-entropy interval is the convergence
//     knob: a faster replicator closes the post-recovery staleness window
//     that spilled async jobs left open;
//   - read-quorum-of-fresh buys back most read-side staleness without
//     touching the write path.

// spectrumFaultDowntime is how long the fault cells hold the victim
// server down: past the async job retry budget (~6× the default retry
// base), so replication to it spills to the updater and convergence is
// carried by the anti-entropy pass.
const spectrumFaultDowntime = time.Second

// SpectrumResults collects the full spectrum grid, one CellResult per cell.
type SpectrumResults []CellResult

// spectrumCells enumerates the canonical order: workload-major; per
// workload the anchor-RF backend comparison (HBase, the three Cassandra
// levels, objstore read-quorum), then the object store's RF sweep at the
// fastest anti-entropy interval and its interval sweep at the anchor RF;
// finally one fault-injected object-store cell per interval, which holds
// a failed server down past the async retry budget.
func spectrumCells(o Options) []cell {
	anchor := anchorRF(o)
	ivals := o.SpectrumReplIntervals
	fastest := ivals[0]
	var cells []cell
	for _, spec := range auditSpecs(o) {
		cells = append(cells, stressCell(o, "HBase", ConsistencySetting{Name: "strong"}, anchor, spec))
		for _, lv := range Levels() {
			cells = append(cells, stressCell(o, "Cassandra", lv, anchor, spec))
		}
		cells = append(cells, objstoreCell(o, objstore.ReadQuorumFresh, anchor, fastest, spec))
		for _, rf := range o.ReplicationFactors {
			cells = append(cells, objstoreCell(o, objstore.ReadOne, rf, fastest, spec))
		}
		for _, iv := range ivals[1:] {
			cells = append(cells, objstoreCell(o, objstore.ReadOne, anchor, iv, spec))
		}
	}
	for _, iv := range ivals {
		c := objstoreCell(o, objstore.ReadOne, anchor, iv, ycsb.ReadUpdate(o.StressRecords))
		c.fault = failHold
		cells = append(cells, c)
	}
	return cells
}

// objstoreCell is one object-store spectrum cell: the oracle runs under
// AckAsync semantics and the cell is labelled by its read policy
// ("async/read-one").
func objstoreCell(o Options, mode objstore.ReadMode, rf int, interval time.Duration, spec ycsb.Spec) cell {
	c := stressCell(o, "ObjStore", ConsistencySetting{Name: "async/" + mode.String()}, rf, spec)
	c.mode, c.interval, c.ack = mode, interval, consistency.AckAsync
	return c
}

// RunSpectrum runs the replication-spectrum grid. Each cell is a
// self-contained deployment with a fresh oracle, fanned out across the
// sweep scheduler; like every experiment the report is bit-identical for
// any parallelism.
func RunSpectrum(o Options) (SpectrumResults, error) {
	return runGrid(o, "spectrum", spectrumCells(o))
}

// Table renders the spectrum as one row per cell.
func (r SpectrumResults) Table() *stats.Table {
	t := stats.NewTable("Replication spectrum — synchronous to asynchronous replication side by side",
		"db", "workload", "level", "rf", "repl-interval", "fault",
		"ops/sec", "mean-latency", "read-p99", "write-p99",
		"reads", "stale-%", "async-regress", "mono-viol",
		"tvis-all-p50", "tvis-all-p99")
	for _, m := range r {
		c := m.Consistency
		interval := "-"
		if m.ReplInterval > 0 {
			interval = m.ReplInterval.String()
		}
		t.AddRow(m.DB, m.Workload, m.Level, m.RF, interval, m.Fault,
			m.Runtime, m.Mean.Round(time.Microsecond).String(),
			m.ReadP99.Round(time.Microsecond).String(),
			m.WriteP99.Round(time.Microsecond).String(),
			c.Reads, fmt.Sprintf("%.3f", 100*c.StaleFraction()),
			c.AsyncRegressions, c.MonotonicViolations,
			c.TVisAllP50.Round(time.Microsecond).String(),
			c.TVisAllP99.Round(time.Microsecond).String())
	}
	return t
}

// CheckSpectrum evaluates the spectrum's qualitative claims.
func CheckSpectrum(o Options, r SpectrumResults) []Finding {
	anchor := anchorRF(o)
	fastest := o.SpectrumReplIntervals[0]
	var fs []Finding

	// FS1: the async-vs-CL=ONE trade at the anchor cell, on the
	// update-heavy mix where read/write interleaving exposes it. Acking
	// after one durable local apply buys a write tail no worse than
	// CL=ONE's synchronous fan-out (within GC-pause noise), and the bill
	// arrives on the read side: read-one staleness far exceeds CL=ONE's —
	// ONE's replicas were already in flight at ack time and its reads pin
	// the main replica, while rotating reads here race replication that
	// only starts after the ack — including reads that regress behind
	// in-flight replication (async regressions), a signature no
	// synchronous setting produces.
	pass1, detail1 := true, ""
	{
		spec := ycsb.ReadUpdate(o.StressRecords)
		obj := lookup(r, CellResult{DB: "ObjStore", Workload: spec.Name, Level: "async/read-one", RF: anchor, ReplInterval: fastest})
		one := lookup(r, CellResult{DB: "Cassandra", Workload: spec.Name, Level: "ONE", RF: anchor})
		if obj == nil || one == nil {
			pass1 = false
		} else {
			if obj.Consistency.StaleFraction() <= one.Consistency.StaleFraction() ||
				obj.Consistency.AsyncRegressions == 0 ||
				obj.WriteP99 > one.WriteP99*3/2 {
				pass1 = false
			}
			detail1 = fmt.Sprintf("%s: write-p99 async=%v ONE=%v, stale async=%.3f%% ONE=%.3f%%, async-regress async=%d ONE=%d",
				spec.Name, obj.WriteP99.Round(time.Microsecond), one.WriteP99.Round(time.Microsecond),
				100*obj.Consistency.StaleFraction(), 100*one.Consistency.StaleFraction(),
				obj.Consistency.AsyncRegressions, one.Consistency.AsyncRegressions)
		}
	}
	fs = append(fs, Finding{
		ID:     "FS1",
		Claim:  "async ack matches CL=ONE's write tail and pays for it in read-side visibility: higher staleness plus async regressions on the read&update mix",
		Pass:   pass1 && detail1 != "",
		Detail: detail1,
	})

	// FS2: write latency decouples from RF while visibility does not —
	// across the object store's RF sweep the write tail stays flat
	// (within noise) while TVisAll keeps growing with the replica count.
	pass2, detail2 := true, ""
	for _, spec := range auditSpecs(o) {
		var cells []*CellResult
		for _, rf := range o.ReplicationFactors {
			if m := lookup(r, CellResult{DB: "ObjStore", Workload: spec.Name, Level: "async/read-one", RF: rf, ReplInterval: fastest}); m != nil {
				cells = append(cells, m)
			}
		}
		if len(cells) < 2 {
			pass2 = false
			continue
		}
		first, last := cells[0], cells[len(cells)-1]
		// Flat: the largest swept RF's write tail within 1.5× of the
		// smallest's (GC-pause noise), not the paper's monotone growth.
		if last.WriteP99 > first.WriteP99*3/2 {
			pass2 = false
		}
		if last.Consistency.TVisAllP99 <= first.Consistency.TVisAllP99 {
			pass2 = false
		}
		detail2 += fmt.Sprintf("%s: write-p99 rf%d=%v rf%d=%v, tvis-all-p99 rf%d=%v rf%d=%v  ",
			spec.Name, first.RF, first.WriteP99.Round(time.Microsecond),
			last.RF, last.WriteP99.Round(time.Microsecond),
			first.RF, first.Consistency.TVisAllP99.Round(time.Microsecond),
			last.RF, last.Consistency.TVisAllP99.Round(time.Microsecond))
	}
	fs = append(fs, Finding{
		ID:     "FS2",
		Claim:  "asynchronous replication decouples the write tail from RF while all-replica visibility keeps growing with it",
		Pass:   pass2 && detail2 != "",
		Detail: detail2,
	})

	// FS3: under fault injection the anti-entropy interval bounds
	// convergence. Jobs for the down server exhaust their retries and
	// spill to the updater, which only runs on the replicator's period —
	// so the time for the recovered replica to see the down-window writes
	// (the all-replica visibility tail) grows with the interval.
	pass3, detail3 := true, ""
	var f []*CellResult
	for i := range r {
		if r[i].Fault {
			f = append(f, &r[i])
		}
	}
	if len(f) >= 2 {
		for i := 1; i < len(f); i++ {
			if f[i].Consistency.TVisAllP99 <= f[i-1].Consistency.TVisAllP99 {
				pass3 = false
			}
		}
		for _, m := range f {
			detail3 += fmt.Sprintf("interval=%v: tvis-all-p99=%v stale=%.3f%% async-regress=%d  ",
				m.ReplInterval, m.Consistency.TVisAllP99.Round(time.Millisecond),
				100*m.Consistency.StaleFraction(), m.Consistency.AsyncRegressions)
		}
	} else {
		pass3 = false
	}
	fs = append(fs, Finding{
		ID:     "FS3",
		Claim:  "under fault injection the anti-entropy interval bounds recovery: the all-replica visibility tail grows with the replicator period",
		Pass:   pass3 && detail3 != "",
		Detail: detail3,
	})

	// FS4: read-quorum-of-fresh buys back read-side staleness without
	// touching the write path: at the anchor cell its stale fraction is
	// at most read-one's, at a higher read tail.
	pass4, detail4 := true, ""
	for _, spec := range auditSpecs(o) {
		one := lookup(r, CellResult{DB: "ObjStore", Workload: spec.Name, Level: "async/read-one", RF: anchor, ReplInterval: fastest})
		q := lookup(r, CellResult{DB: "ObjStore", Workload: spec.Name, Level: "async/read-quorum", RF: anchor, ReplInterval: fastest})
		if one == nil || q == nil {
			pass4 = false
			continue
		}
		if q.Consistency.StaleFraction() > one.Consistency.StaleFraction() {
			pass4 = false
		}
		detail4 += fmt.Sprintf("%s: stale read-one=%.3f%% read-quorum=%.3f%%, read-p99 read-one=%v read-quorum=%v  ",
			spec.Name, 100*one.Consistency.StaleFraction(), 100*q.Consistency.StaleFraction(),
			one.ReadP99.Round(time.Microsecond), q.ReadP99.Round(time.Microsecond))
	}
	fs = append(fs, Finding{
		ID:     "FS4",
		Claim:  "read-quorum-of-fresh reduces observed staleness versus read-one at the same write path",
		Pass:   pass4 && detail4 != "",
		Detail: detail4,
	})

	return fs
}
