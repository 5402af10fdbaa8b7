package core

import (
	"fmt"
	"time"

	"cloudbench/internal/stats"
	"cloudbench/internal/ycsb"
)

// The consistency audit.
//
// The paper's §4.1 and §4.3 explain Cassandra's latency curves with a
// causal story about stale replicas: writes at CL=ONE ack on the fastest
// replica while the fixed "main replica" that serves subsequent reads may
// lag behind, and read repair is what closes the gap. The paper never
// measures the staleness itself. This experiment does, with the
// consistency oracle: the same CL × RF grid as the performance figures,
// over the two workloads where staleness matters most (read-latest targets
// just-written keys; read&update is the 50/50 mixer of Fig. 3), plus one
// cell under the failover experiment's fault injection, reporting
// client-centric staleness next to the usual latency and throughput.
//
// Audit cells run Cassandra with the replica MutationStage jitter enabled
// (cassandra.Config.MutationStageMeanDelay): without it the simulated fan-out delivers
// strictly FIFO per node and a read issued after a write's ack can never
// overtake the main replica's pending apply, so CL=ONE staleness would be
// structurally zero — unlike a real cluster, where per-message stage
// hand-off and JVM scheduling variance reorder the apply behind the read.
// The latency experiments leave the jitter off (it is second order for
// latency); turning it on only here keeps Fig. 1–3 bit-identical.
//
// Expected shape, asserted by CheckAudit:
//   - HBase (single-owner regions, the strong-consistency control) and
//     Cassandra at QUORUM/writeALL (R+W > N) never serve stale reads: any
//     read set intersects every acked write set, and digest mismatch
//     triggers blocking repair before the read returns;
//   - at CL=ONE the stale fraction grows strictly with RF: the ack comes
//     from the fastest of RF independently jittered replicas while the
//     read keeps hitting the fixed main replica, so more replicas mean an
//     earlier ack — and a more heavily loaded mutation stage — both
//     widening the window in which an acknowledged write is invisible;
//   - under fault injection (one server fails a quarter into the run and
//     recovers at the midpoint) the recovered server resumes serving its
//     main-replica reads while still missing the down-window writes,
//     visible as a staleness/monotonic spike relative to the healthy
//     cell, and hinted handoff is what closes the gap — visible as
//     hint-replay applies during the settle window.

const (
	// auditMutationStage is the per-mutation stage jitter mean (scaled by
	// RF inside cassandra) used by every Cassandra audit cell.
	auditMutationStage = 150 * time.Microsecond
	// auditFaultSettle keeps a fault cell alive after the run so the
	// hint-replay loop (default interval 10 s) demonstrably drains.
	auditFaultSettle = 15 * time.Second
)

// AuditResults collects the full audit grid, one CellResult per cell.
type AuditResults []CellResult

// auditSpecs returns the audited workloads: the two stress workloads whose
// read/write interleaving makes staleness observable.
func auditSpecs(o Options) []ycsb.Spec {
	return []ycsb.Spec{
		ycsb.ReadLatest(o.StressRecords),
		ycsb.ReadUpdate(o.StressRecords),
	}
}

// stressCell is the audit and spectrum cell shape: the stress client at
// full concurrency under the consistency oracle, with the replica
// MutationStage jitter on for Cassandra.
func stressCell(o Options, db string, lv ConsistencySetting, rf int, spec ycsb.Spec) cell {
	return cell{
		db: db, level: lv, rf: rf, spec: spec,
		loadThreads: o.Threads, threads: o.Threads, ops: o.StressOps,
		mutationStage: auditMutationStage,
	}
}

// auditCells enumerates the canonical audit order: workload-major, the
// HBase control sweep first, then Cassandra level-major with RF ascending,
// and the single fault-injected cell last. The fault cell fails one server
// a quarter into the run and recovers it at the midpoint.
func auditCells(o Options) []cell {
	var cells []cell
	for _, spec := range auditSpecs(o) {
		for _, rf := range o.ReplicationFactors {
			cells = append(cells, stressCell(o, "HBase", ConsistencySetting{Name: "strong"}, rf, spec))
		}
		for _, lv := range Levels() {
			for _, rf := range o.ReplicationFactors {
				cells = append(cells, stressCell(o, "Cassandra", lv, rf, spec))
			}
		}
	}
	f := stressCell(o, "Cassandra", Levels()[0], anchorRF(o), ycsb.ReadUpdate(o.StressRecords))
	f.fault = failRecover
	return append(cells, f)
}

// RunConsistencyAudit runs the audit grid. Each cell is a self-contained
// deployment with a fresh oracle, fanned out across the sweep scheduler;
// like every experiment the report is bit-identical for any parallelism.
func RunConsistencyAudit(o Options) (AuditResults, error) {
	return runGrid(o, "audit", auditCells(o))
}

// Table renders the audit as one paper-style row per cell: staleness and
// visibility next to latency.
func (r AuditResults) Table() *stats.Table {
	t := stats.NewTable("Consistency audit — client-centric staleness by consistency level and replication factor",
		"db", "workload", "level", "rf", "fault",
		"ops/sec", "mean-latency",
		"reads", "stale", "stale-%", "mean-lag", "max-lag",
		"tvis-q-p50", "tvis-q-p99", "tvis-all-p50", "tvis-all-p99",
		"mono-viol", "repair-applies", "hint-applies")
	for _, m := range r {
		c := m.Consistency
		t.AddRow(m.DB, m.Workload, m.Level, m.RF, m.Fault,
			m.Runtime, m.Mean.Round(time.Microsecond).String(),
			c.Reads, c.StaleReads, fmt.Sprintf("%.3f", 100*c.StaleFraction()),
			fmt.Sprintf("%.2f", c.MeanLag), c.MaxLag,
			c.TVisQuorumP50.Round(time.Microsecond).String(),
			c.TVisQuorumP99.Round(time.Microsecond).String(),
			c.TVisAllP50.Round(time.Microsecond).String(),
			c.TVisAllP99.Round(time.Microsecond).String(),
			c.MonotonicViolations, c.RepairApplies, c.HintApplies)
	}
	return t
}

// CheckAudit evaluates the audit's qualitative claims.
func CheckAudit(r AuditResults) []Finding {
	var fs []Finding

	// FA1: HBase, the strong-consistency control, is always fresh.
	hbStale, hbMono, hbCells := int64(0), int64(0), 0
	for _, m := range r {
		if m.DB == "HBase" {
			hbCells++
			hbStale += m.Consistency.StaleReads
			hbMono += m.Consistency.MonotonicViolations
		}
	}
	fs = append(fs, Finding{
		ID:     "FA1",
		Claim:  "HBase serves zero stale reads at every replication factor",
		Pass:   hbCells > 0 && hbStale == 0 && hbMono == 0,
		Detail: fmt.Sprintf("%d cells: stale=%d monotonic-violations=%d", hbCells, hbStale, hbMono),
	})

	// FA2: R+W > N (QUORUM/QUORUM and ONE-read/ALL-write) never stale on
	// a healthy cluster: any read quorum intersects every acked write set.
	var qStale, qReads int64
	qCells := 0
	for _, m := range r {
		if m.DB == "Cassandra" && !m.Fault && (m.Level == "QUORUM" || m.Level == "writeALL") {
			qCells++
			qStale += m.Consistency.StaleReads
			qReads += m.Consistency.Reads
		}
	}
	fs = append(fs, Finding{
		ID:     "FA2",
		Claim:  "Cassandra never serves stale reads when R+W > N (QUORUM, writeALL)",
		Pass:   qCells > 0 && qStale == 0,
		Detail: fmt.Sprintf("%d cells, %d reads: stale=%d", qCells, qReads, qStale),
	})

	// FA3: at CL=ONE the stale fraction grows strictly with RF — the
	// mechanism behind the paper's F4: acks come from the fastest of RF
	// replicas while reads keep hitting the fixed main replica.
	pass3 := true
	detail3 := ""
	for _, spec := range []string{"read-latest", "read-update"} {
		var series []float64
		var rfs []int
		for _, m := range r {
			if m.DB == "Cassandra" && m.Workload == spec && m.Level == "ONE" && !m.Fault {
				series = append(series, m.Consistency.StaleFraction())
				rfs = append(rfs, m.RF)
			}
		}
		if len(series) < 2 {
			continue
		}
		for i := 1; i < len(series); i++ {
			if series[i] <= series[i-1] {
				pass3 = false
			}
		}
		detail3 += fmt.Sprintf("%s:", spec)
		for i, v := range series {
			detail3 += fmt.Sprintf(" rf%d=%.3f%%", rfs[i], 100*v)
		}
		detail3 += "  "
	}
	fs = append(fs, Finding{
		ID:     "FA3",
		Claim:  "stale-read fraction at CL=ONE strictly increases with replication factor",
		Pass:   pass3 && detail3 != "",
		Detail: detail3,
	})

	// FA4: fault injection at ONE adds staleness/monotonic regressions,
	// and hinted handoff is what closes the gap after recovery.
	if f := lookup(r, CellResult{Fault: true}); f != nil {
		h := lookup(r, CellResult{DB: f.DB, Workload: f.Workload, Level: f.Level, RF: f.RF})
		pass := f.Consistency.HintApplies > 0
		detail := fmt.Sprintf("fault cell (%s %s rf%d): stale=%.3f%% mono-viol=%d hint-applies=%d",
			f.Level, f.Workload, f.RF, 100*f.Consistency.StaleFraction(),
			f.Consistency.MonotonicViolations, f.Consistency.HintApplies)
		if h != nil {
			pass = pass && f.Consistency.StaleFraction() >= h.Consistency.StaleFraction() &&
				f.Consistency.MonotonicViolations >= h.Consistency.MonotonicViolations
			detail += fmt.Sprintf(" vs healthy: stale=%.3f%% mono-viol=%d",
				100*h.Consistency.StaleFraction(), h.Consistency.MonotonicViolations)
		}
		fs = append(fs, Finding{
			ID:     "FA4",
			Claim:  "fault injection adds staleness at ONE; hinted handoff replays close the gap",
			Pass:   pass,
			Detail: detail,
		})
	}
	return fs
}
