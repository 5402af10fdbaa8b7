package core

import (
	"fmt"
	"strings"
	"time"

	"cloudbench/internal/kv"
	"cloudbench/internal/stats"
	"cloudbench/internal/ycsb"
)

// The geo-replication experiment (§6: "we need to build a geo-distributed
// testbed to conduct such tests").
//
// Where the paper's figures run on one rack, this grid runs Cassandra
// across 2- and 3-datacenter topologies (cluster.GeoTopology) with
// NetworkTopologyStrategy placement (cassandra.Config.DCReplicas) and
// clients attached in every DC, and sweeps the three write levels whose
// WAN behavior differs structurally — ONE (any single ack), LOCAL_QUORUM
// (majority in the coordinator's DC, WAN traffic fully asynchronous), and
// EACH_QUORUM (majority in every DC, so the slowest WAN round trip is on
// the write path) — against WAN RTTs from regional (20 ms) to
// intercontinental (200 ms). Reads stay at LOCAL_QUORUM throughout: the
// grid isolates what the *write* level costs and leaks.
//
// Three extra cell families complete the trade-off picture:
//   - an RF-per-DC sweep at the 2-DC anchor point, varying the
//     NetworkTopologyStrategy allocation ({1,1} → {3,3}) at fixed level;
//   - two DC-partition fault cells (EACH_QUORUM and LOCAL_QUORUM) where
//     the WAN link is cut a quarter into the run and healed at the
//     midpoint, measuring availability under partition;
//   - two SLA cells comparing a fixed EACH_QUORUM client against the
//     adaptive client (package geo) defending a 40 ms write deadline over
//     an 80 ms WAN — tail latency on one side, oracle-measured staleness
//     on the other.
//
// Every cell attaches the consistency oracle with the audit's
// MutationStage jitter, so the staleness each level leaks is a measured
// column, not a story. GC pauses stay off in this experiment: the effects
// under test are multi-millisecond WAN waits and the 40 ms SLA verdict,
// and 25 ms JVM pause tails (measured by the single-rack figures) would
// smear both without adding geo-specific information.

const (
	// geoServersPerDC keeps each DC small enough that the 3-DC × 200 ms
	// cells stay cheap while every DC can still hold a 3-replica quorum.
	geoServersPerDC = 3
	// geoWANJitter spreads per-message WAN latency uniformly over
	// [base, base+jitter): enough variance to exercise the seeded
	// per-link streams without blurring the level separation.
	geoWANJitter = 2 * time.Millisecond
	// geoAnchorRTT is the RTT of the RF-sweep, fault, and SLA cells.
	geoAnchorRTT = 80 * time.Millisecond
	// geoSLADeadline is the write-latency SLA the adaptive client
	// defends: half the anchor RTT, affordable at LOCAL_QUORUM but not
	// at EACH_QUORUM.
	geoSLADeadline = 40 * time.Millisecond
)

// geoRTTs is the WAN round-trip sweep: same-region, cross-region, and
// intercontinental.
func geoRTTs() []time.Duration {
	return []time.Duration{20 * time.Millisecond, 80 * time.Millisecond, 200 * time.Millisecond}
}

// geoLevels returns the swept write levels. Reads run at LOCAL_QUORUM in
// every cell so the columns isolate the write level's cost.
func geoLevels() []ConsistencySetting {
	return []ConsistencySetting{
		{Name: "ONE", Read: kv.LocalQuorum, Write: kv.One},
		{Name: "LOCAL_QUORUM", Read: kv.LocalQuorum, Write: kv.LocalQuorum},
		{Name: "EACH_QUORUM", Read: kv.LocalQuorum, Write: kv.EachQuorum},
	}
}

// geoThreads scales the client shape down from the single-rack stress
// figures: the geo cells measure per-operation WAN waits, not saturation,
// and fewer closed-loop threads keep queueing out of the latency columns.
func geoThreads(o Options) int {
	t := o.Threads / 4
	if t > 64 {
		t = 64
	}
	if t < 1 {
		t = 1
	}
	return t
}

// geoOps is the per-cell operation count.
func geoOps(o Options) int64 { return o.StressOps / 2 }

// geoUniformRF is the default NetworkTopologyStrategy allocation: rf
// replicas in each of dcs data centers.
func geoUniformRF(dcs, rf int) []int {
	out := make([]int, dcs)
	for i := range out {
		out[i] = rf
	}
	return out
}

// rfLabel renders an RF-per-DC allocation as "2+2".
func rfLabel(perDC []int) string {
	parts := make([]string, len(perDC))
	for i, rf := range perDC {
		parts[i] = fmt.Sprintf("%d", rf)
	}
	return strings.Join(parts, "+")
}

// Geo cell modes.
const (
	geoModeGrid     = "grid"
	geoModeFault    = "fault"
	geoModeFixed    = "sla-fixed"
	geoModeAdaptive = "sla-adaptive"
)

// geoCells enumerates the canonical sweep order: the 2- and 3-DC RTT ×
// level grids, the RF-per-DC sweep at the anchor point, the two
// DC-partition fault cells, and the two SLA cells last.
func geoCells(o Options) []cell {
	geoCell := func(rtt time.Duration, lv ConsistencySetting, perDC []int, mode string) cell {
		c := cell{
			db: "Cassandra", level: lv, perDC: perDC, rtt: rtt,
			spec:        ycsb.ReadUpdate(o.StressRecords),
			loadThreads: geoThreads(o), threads: geoThreads(o), ops: geoOps(o),
			noGC: true, mutationStage: auditMutationStage, geoMode: mode,
		}
		switch mode {
		case geoModeFault:
			c.fault = partition
		case geoModeAdaptive:
			c.adaptive = true
		}
		return c
	}
	var cells []cell
	for _, dcs := range []int{2, 3} {
		for _, rtt := range geoRTTs() {
			for _, lv := range geoLevels() {
				cells = append(cells, geoCell(rtt, lv, geoUniformRF(dcs, 2), geoModeGrid))
			}
		}
	}
	for _, perDC := range [][]int{{1, 1}, {3, 1}, {3, 3}} {
		cells = append(cells, geoCell(geoAnchorRTT, geoLevels()[1], perDC, geoModeGrid))
	}
	for _, lv := range []ConsistencySetting{geoLevels()[2], geoLevels()[1]} {
		cells = append(cells, geoCell(geoAnchorRTT, lv, geoUniformRF(2, 2), geoModeFault))
	}
	return append(cells,
		geoCell(geoAnchorRTT, geoLevels()[2], geoUniformRF(2, 2), geoModeFixed),
		geoCell(geoAnchorRTT, ConsistencySetting{Name: "adaptive", Read: kv.LocalQuorum}, geoUniformRF(2, 2), geoModeAdaptive),
	)
}

// GeoResults collects the full geo grid, one CellResult per cell. The
// Level label is the write consistency level (or "adaptive").
type GeoResults []CellResult

// RunGeo runs the geo-replication grid. Like every experiment, each cell
// is a self-contained deterministic simulation fanned out across the
// sweep scheduler, and the report is bit-identical for any Parallelism or
// Shards value.
func RunGeo(o Options) (GeoResults, error) {
	return runGrid(o, "geo", geoCells(o))
}

// Table renders the geo grid as one row per cell: the latency profile,
// availability, the oracle's staleness verdict, and the adaptive
// controller's counters where they apply.
func (r GeoResults) Table() *stats.Table {
	t := stats.NewTable("Geo-replication — multi-DC latency, availability, and staleness by write consistency level",
		"dcs", "rtt", "write-cl", "rf-per-dc", "mode",
		"ops/sec", "read-mean", "read-p99", "write-mean", "write-p99",
		"errors", "reads", "stale-%",
		"final-stage", "stage-ops", "step-downs", "sla-misses")
	for _, m := range r {
		stage, stageOps, downs, misses := "-", "-", "-", "-"
		if m.Adaptive != nil {
			stage = m.AdaptiveStage
			parts := make([]string, len(m.Adaptive.OpsPerStage))
			for i, n := range m.Adaptive.OpsPerStage {
				parts[i] = fmt.Sprintf("%d", n)
			}
			stageOps = strings.Join(parts, "/")
			downs = fmt.Sprintf("%d", m.Adaptive.StepDowns)
			misses = fmt.Sprintf("%d", m.Adaptive.Misses)
		}
		t.AddRow(m.DCs, m.RTT.String(), m.Level, m.PerDC, m.Mode,
			m.Runtime,
			m.ReadMean.Round(time.Microsecond).String(),
			m.ReadP99.Round(time.Microsecond).String(),
			m.WriteMean.Round(time.Microsecond).String(),
			m.WriteP99.Round(time.Microsecond).String(),
			m.Errors, m.Consistency.Reads,
			fmt.Sprintf("%.3f", 100*m.Consistency.StaleFraction()),
			stage, stageOps, downs, misses)
	}
	return t
}

// CheckGeo evaluates the geo experiment's qualitative claims.
func CheckGeo(o Options, r GeoResults) []Finding {
	var fs []Finding
	rtts := geoRTTs()
	anchor := rfLabel(geoUniformRF(2, 2))

	// FG1: EACH_QUORUM write latency grows with the WAN RTT (the slowest
	// round trip is on the write path) while LOCAL_QUORUM stays flat (all
	// WAN traffic is asynchronous).
	var eqMeans, lqMeans []time.Duration
	for _, rtt := range rtts {
		if m := lookup(r, CellResult{Mode: geoModeGrid, DCs: 2, RTT: rtt, Level: "EACH_QUORUM", PerDC: anchor}); m != nil {
			eqMeans = append(eqMeans, m.WriteMean)
		}
		if m := lookup(r, CellResult{Mode: geoModeGrid, DCs: 2, RTT: rtt, Level: "LOCAL_QUORUM", PerDC: anchor}); m != nil {
			lqMeans = append(lqMeans, m.WriteMean)
		}
	}
	eqGrowth := 0.0
	if len(eqMeans) >= 2 {
		eqGrowth = ratio(float64(eqMeans[len(eqMeans)-1]), float64(eqMeans[0]))
	}
	lqFlat := flatness(lqMeans)
	fs = append(fs, Finding{
		ID:    "FG1",
		Claim: "EACH_QUORUM write latency grows with WAN RTT; LOCAL_QUORUM stays flat",
		Pass:  len(eqMeans) == len(rtts) && len(lqMeans) == len(rtts) && eqGrowth > 2.0 && lqFlat < 1.5,
		Detail: fmt.Sprintf("EACH_QUORUM mean %v→%v (x%.1f, threshold 2.0); LOCAL_QUORUM max/min=%.2f (threshold 1.5)",
			first(eqMeans), last(eqMeans), eqGrowth, lqFlat),
	})

	// FG2: the staleness each write level leaks orders inversely to its
	// strength — EACH_QUORUM's per-DC majorities intersect every
	// LOCAL_QUORUM read set (zero stale), LOCAL_QUORUM leaks stale reads
	// in remote DCs until the async forward lands, and ONE adds a
	// coordinator-DC window on top.
	one := lookup(r, CellResult{Mode: geoModeGrid, DCs: 2, RTT: geoAnchorRTT, Level: "ONE", PerDC: anchor})
	lq := lookup(r, CellResult{Mode: geoModeGrid, DCs: 2, RTT: geoAnchorRTT, Level: "LOCAL_QUORUM", PerDC: anchor})
	eq := lookup(r, CellResult{Mode: geoModeGrid, DCs: 2, RTT: geoAnchorRTT, Level: "EACH_QUORUM", PerDC: anchor})
	if one != nil && lq != nil && eq != nil {
		oneS, lqS, eqS := one.Consistency.StaleFraction(), lq.Consistency.StaleFraction(), eq.Consistency.StaleFraction()
		fs = append(fs, Finding{
			ID:    "FG2",
			Claim: "staleness rises as the write level steps down: EACH_QUORUM=0 < LOCAL_QUORUM ≤ ONE",
			Pass:  eqS == 0 && lqS > 0 && oneS >= lqS,
			Detail: fmt.Sprintf("stale%%: EACH_QUORUM=%.3f LOCAL_QUORUM=%.3f ONE=%.3f (2dc/80ms)",
				100*eqS, 100*lqS, 100*oneS),
		})
	}

	// FG3: the adaptive client keeps write p99 under the SLA deadline
	// where fixed EACH_QUORUM misses it — at a quantified staleness cost.
	fixed := lookup(r, CellResult{Mode: geoModeFixed, DCs: 2, RTT: geoAnchorRTT, Level: "EACH_QUORUM", PerDC: anchor})
	adaptive := lookup(r, CellResult{Mode: geoModeAdaptive, DCs: 2, RTT: geoAnchorRTT, Level: "adaptive", PerDC: anchor})
	if fixed != nil && adaptive != nil {
		pass := fixed.WriteP99 > geoSLADeadline && adaptive.WriteP99 <= geoSLADeadline &&
			adaptive.Adaptive != nil && adaptive.Adaptive.StepDowns >= 1 && adaptive.Adaptive.OpsPerStage[0] > 0
		detail := fmt.Sprintf("write-p99: fixed=%v adaptive=%v (deadline %v); stale%%: fixed=%.3f adaptive=%.3f",
			fixed.WriteP99.Round(time.Microsecond), adaptive.WriteP99.Round(time.Microsecond), geoSLADeadline,
			100*fixed.Consistency.StaleFraction(), 100*adaptive.Consistency.StaleFraction())
		if adaptive.Adaptive != nil {
			detail += fmt.Sprintf("; step-downs=%d final=%s", adaptive.Adaptive.StepDowns, adaptive.AdaptiveStage)
		}
		fs = append(fs, Finding{
			ID:     "FG3",
			Claim:  "adaptive client meets the 40ms write SLA that fixed EACH_QUORUM misses, trading staleness",
			Pass:   pass,
			Detail: detail,
		})
	}

	// FG4: under a DC partition, LOCAL_QUORUM stays available while
	// EACH_QUORUM fails writes until the link heals.
	eqF := lookup(r, CellResult{Mode: geoModeFault, DCs: 2, RTT: geoAnchorRTT, Level: "EACH_QUORUM", PerDC: anchor, Fault: true})
	lqF := lookup(r, CellResult{Mode: geoModeFault, DCs: 2, RTT: geoAnchorRTT, Level: "LOCAL_QUORUM", PerDC: anchor, Fault: true})
	if eqF != nil && lqF != nil {
		fs = append(fs, Finding{
			ID:    "FG4",
			Claim: "DC partition: LOCAL_QUORUM stays available, EACH_QUORUM writes fail until heal",
			Pass:  eqF.Errors > 0 && lqF.Errors == 0,
			Detail: fmt.Sprintf("errors during partitioned run: EACH_QUORUM=%d LOCAL_QUORUM=%d (of %d ops)",
				eqF.Errors, lqF.Errors, geoOps(o)),
		})
	}
	return fs
}

// first and last guard empty latency series in finding details.
func first(v []time.Duration) time.Duration {
	if len(v) == 0 {
		return 0
	}
	return v[0]
}

func last(v []time.Duration) time.Duration {
	if len(v) == 0 {
		return 0
	}
	return v[len(v)-1]
}
