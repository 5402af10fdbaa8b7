package core

import (
	"fmt"
	"strings"
	"time"

	"cloudbench/internal/stats"
	"cloudbench/internal/trace"
	"cloudbench/internal/ycsb"
)

// The trace breakdown experiment.
//
// The paper's figures report end-to-end latency and leave the causal story
// — WAL versus memtable, fan-out versus service, read repair's growing
// bill — to prose. This experiment instruments the same request paths with
// the deterministic tracer and decomposes latency by phase on the paper's
// own grid: HBase (strong) and Cassandra at ONE/QUORUM/writeALL, each
// swept over the replication factors, under the read&update stress
// workload (the 50/50 mixer where both the read and write paths matter).
//
// Expected shape, asserted by CheckTrace:
//   - HBase reads are served by the single region owner: no replica
//     fan-out phase at any replication factor (the mechanism behind F1 —
//     HBase read latency is flat in RF);
//   - at CL=ONE the read-repair share of Cassandra read latency grows
//     with the replication factor for RF ≥ 3: every read triggers repair
//     of RF−1 replicas while the read itself still touches one (the
//     mechanism behind F4);
//   - HBase updates pay a synchronous WAL append; Cassandra's periodic
//     commit-log sync keeps its update path free of WAL stalls (§4.2's
//     write-path asymmetry).
//
// Shares are phase time over summed root latency; phases that overlap or
// run concurrently (fan-out legs, background repair) can sum past 100%.

// TraceResults collects the full grid, one CellResult per cell with the
// tracer's per-class per-phase decomposition attached.
type TraceResults []CellResult

// traceCell is one trace grid point under the read&update stress workload.
//
// The decomposition is after the *structural* phase costs — how the
// request paths differ by database, consistency level, and replication
// factor. JVM pauses are additive noise on every phase and, at small
// profile scales, whether a 30 ms pause lands on a measured op moves a
// class's summed latency (every share's denominator) by more than the
// effects under study. Trace cells therefore run with GC off; the latency
// experiments keep it on (and stay bit-identical). The run uses the micro
// benchmark's unsaturated client shape (§4.1): at full stress concurrency,
// queue waits inside composite repair spans grow with cluster load, not
// with the replication factor, and drown the structural shares.
func traceCell(o Options, db string, lv ConsistencySetting, rf int) cell {
	return cell{
		db: db, level: lv, rf: rf, spec: ycsb.ReadUpdate(o.StressRecords),
		loadThreads: o.Threads, threads: o.MicroThreads, ops: o.StressOps,
		noGC: true, trace: true,
	}
}

// traceCells enumerates the canonical order: the HBase control sweep
// first, then Cassandra level-major with RF ascending.
func traceCells(o Options) []cell {
	var cells []cell
	for _, rf := range o.ReplicationFactors {
		cells = append(cells, traceCell(o, "HBase", ConsistencySetting{Name: "strong"}, rf))
	}
	for _, lv := range Levels() {
		for _, rf := range o.ReplicationFactors {
			cells = append(cells, traceCell(o, "Cassandra", lv, rf))
		}
	}
	return cells
}

// RunTraceBreakdown runs the trace grid. Each cell is a self-contained
// deployment with a fresh tracer, fanned out across the sweep scheduler;
// span IDs come from per-proc seeded RNGs, so the report — and the raw
// span stream — is bit-identical for any parallelism.
func RunTraceBreakdown(o Options) (TraceResults, error) {
	return runGrid(o, "tracebreak", traceCells(o))
}

// TraceSpanKeep bounds raw span retention for exports: enough for several
// thousand ops' full phase detail without unbounded growth.
const TraceSpanKeep = 200_000

// RunTraceSpans runs the one span-retaining cell — Cassandra at CL=ONE and
// the largest swept replication factor, the cell with the richest phase
// mix — and returns its result plus up to keep raw spans for export.
func RunTraceSpans(o Options, keep int) (CellResult, []trace.Span, error) {
	c := traceCell(o, "Cassandra", Levels()[0], o.ReplicationFactors[len(o.ReplicationFactors)-1])
	c.keepSpans = keep
	res, err := runCell(o, c)
	return res, res.spans, err
}

// phaseShare returns the share of the named phase within the named class
// of the cell, 0 when the phase recorded nothing.
func (m *CellResult) phaseShare(class, phase string) float64 {
	cs := m.Trace.Class(class)
	if cs == nil {
		return 0
	}
	ps := cs.Phase(phase)
	if ps == nil {
		return 0
	}
	return ps.Share
}

// Table renders the decomposition as one row per (cell, class, phase).
func (r TraceResults) Table() *stats.Table {
	t := stats.NewTable("Per-phase latency decomposition — phase share of class latency by consistency setting and replication factor",
		"db", "level", "rf", "class", "ops", "ops/sec", "class-mean", "class-p99",
		"phase", "count", "phase-total", "share-%", "phase-p50", "phase-p99")
	for _, m := range r {
		for _, cs := range m.Trace.Classes {
			for _, ps := range cs.Phases {
				t.AddRow(m.DB, m.Level, m.RF, cs.Class, cs.Ops,
					fmt.Sprintf("%.0f", m.Runtime),
					cs.Mean.Round(time.Microsecond).String(),
					cs.P99.Round(time.Microsecond).String(),
					ps.Phase, ps.Count,
					ps.Total.Round(time.Microsecond).String(),
					fmt.Sprintf("%.2f", 100*ps.Share),
					ps.P50.Round(time.Microsecond).String(),
					ps.P99.Round(time.Microsecond).String())
			}
		}
	}
	return t
}

// CheckTrace evaluates the decomposition's qualitative claims.
func CheckTrace(r TraceResults) []Finding {
	var fs []Finding

	// FT1: HBase reads never fan out — the single region owner serves
	// them, which is why F1 finds HBase read latency flat in RF.
	hbCells, hbFanout := 0, int64(0)
	for _, m := range r {
		if m.DB != "HBase" {
			continue
		}
		hbCells++
		if cs := m.Trace.Class("read"); cs != nil {
			if ps := cs.Phase("fanout"); ps != nil {
				hbFanout += ps.Count
			}
		}
	}
	fs = append(fs, Finding{
		ID:     "FT1",
		Claim:  "HBase reads show no replica fan-out phase at any replication factor",
		Pass:   hbCells > 0 && hbFanout == 0,
		Detail: fmt.Sprintf("%d cells: read fan-out spans=%d", hbCells, hbFanout),
	})

	// FT2: at CL=ONE the read-repair share of Cassandra read latency
	// grows with RF for RF ≥ 3 — repair touches RF−1 replicas while the
	// read touches one, the mechanism behind F4.
	var shares []float64
	var rfs []int
	for _, m := range r {
		if m.DB == "Cassandra" && m.Level == "ONE" && m.RF >= 3 {
			shares = append(shares, m.phaseShare("read", "read-repair"))
			rfs = append(rfs, m.RF)
		}
	}
	pass2 := len(shares) >= 2
	detail2 := ""
	for i, v := range shares {
		if i > 0 && v <= shares[i-1] {
			pass2 = false
		}
		detail2 += fmt.Sprintf(" rf%d=%.1f%%", rfs[i], 100*v)
	}
	fs = append(fs, Finding{
		ID:     "FT2",
		Claim:  "Cassandra CL=ONE read-repair share of read latency increases with RF for RF >= 3",
		Pass:   pass2,
		Detail: strings.TrimSpace(detail2),
	})

	// FT3: the write-path asymmetry — HBase updates pay a synchronous WAL
	// append, Cassandra's periodic commit-log sync keeps its update path
	// free of WAL spans.
	hbWAL, caWAL := int64(0), int64(0)
	hbUpd, caUpd := 0, 0
	for _, m := range r {
		cs := m.Trace.Class("update")
		if cs == nil {
			continue
		}
		var c int64
		if ps := cs.Phase("wal"); ps != nil {
			c = ps.Count
		}
		if m.DB == "HBase" {
			hbUpd++
			hbWAL += c
		} else {
			caUpd++
			caWAL += c
		}
	}
	fs = append(fs, Finding{
		ID:     "FT3",
		Claim:  "HBase updates include synchronous WAL appends; Cassandra updates (periodic commit-log sync) include none",
		Pass:   hbUpd > 0 && caUpd > 0 && hbWAL > 0 && caWAL == 0,
		Detail: fmt.Sprintf("wal spans: hbase=%d (%d cells) cassandra=%d (%d cells)", hbWAL, hbUpd, caWAL, caUpd),
	})
	return fs
}
