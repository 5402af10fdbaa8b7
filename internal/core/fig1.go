package core

import (
	"fmt"
	"time"

	"cloudbench/internal/sim"
	"cloudbench/internal/stats"
	"cloudbench/internal/ycsb"
)

// MicroResult is one point of Fig. 1: one database, one replication
// factor, one atomic operation.
type MicroResult struct {
	DB         string
	RF         int
	Op         string
	Mean       time.Duration
	P50        time.Duration
	P95        time.Duration
	Throughput float64
}

// Fig1Results collects the full micro-benchmark sweep.
type Fig1Results []MicroResult

// microOps is the paper's in-round test order: update, read, insert, scan
// (§4.1 runs "the update/read/insert/scan test one after another"). The
// order matters: reads follow updates, which is the read-after-write
// pipeline that triggers Cassandra's read repair.
var microOrder = []string{"update", "read", "insert", "scan"}

func microSpec(op string, records int64) ycsb.Spec {
	switch op {
	case "update":
		return ycsb.MicroUpdate(records)
	case "read":
		return ycsb.MicroRead(records)
	case "insert":
		return ycsb.MicroInsert(records)
	default:
		return ycsb.MicroScan(records)
	}
}

// RunFig1 reproduces the micro benchmark for replication: six rounds, one
// per replication factor, each running the four atomic tests back to back
// on an unsaturated cluster, for both databases. Rounds are independent
// simulations and fan out across the sweep scheduler (Options.Parallelism).
func RunFig1(o Options) (Fig1Results, error) {
	cells := dbRFCells(o)
	rounds, err := runCells(o.workers(), len(cells), func(i int) (Fig1Results, error) {
		c := cells[i]
		res, err := RunFig1Round(o, c.db, c.rf)
		if err != nil {
			return nil, fmt.Errorf("fig1 %s rf=%d: %w", c.db, c.rf, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	return flattenCells(rounds), nil
}

// RunFig1Round runs one round of the micro benchmark: one database at one
// replication factor, the four atomic tests in paper order. Cassandra runs
// the default consistency strategy, ONE/ONE.
func RunFig1Round(o Options, db string, rf int) (Fig1Results, error) {
	loadSpec := ycsb.MicroUpdate(o.MicroRecords) // shape only; used for load
	d := deploy(o, cell{db: db, level: Levels()[0], rf: rf, spec: loadSpec})
	var out Fig1Results
	err := d.drive(func(p *sim.Proc) {
		w := ycsb.NewWorkload(loadSpec)
		d.loadAndSettle(p, w, o.Threads)
		records := w.Inserted()
		for _, op := range microOrder {
			spec := microSpec(op, records)
			wl := ycsb.NewWorkload(spec)
			res := ycsb.Run(p, d.newClient, wl, ycsb.RunConfig{
				Threads:          o.MicroThreads,
				Ops:              o.MicroOps,
				TargetThroughput: o.MicroThrottle,
				WarmupFraction:   o.WarmupFraction,
			})
			records = wl.Inserted()
			out = append(out, MicroResult{
				DB:         db,
				RF:         rf,
				Op:         op,
				Mean:       res.MeanLatency(),
				P50:        res.Overall.Percentile(50),
				P95:        res.Overall.Percentile(95),
				Throughput: res.Throughput,
			})
			p.Sleep(quiesce / 4)
		}
	})
	return out, err
}

// Figures renders Fig. 1 as one latency-vs-RF panel per operation, with a
// series per database — the same panels the paper plots.
func (r Fig1Results) Figures() []*stats.Figure {
	var figs []*stats.Figure
	for _, op := range microOrder {
		f := stats.NewFigure(
			fmt.Sprintf("Fig. 1 (micro replication): %s latency vs replication factor", op),
			"replication-factor", "median latency (µs)")
		for _, db := range []string{"HBase", "Cassandra"} {
			s := f.AddSeries(db)
			for _, m := range r {
				if m.DB == db && m.Op == op {
					s.Add(float64(m.RF), float64(m.P50.Microseconds()))
				}
			}
		}
		figs = append(figs, f)
	}
	return figs
}

// Table renders every Fig. 1 point as one row.
func (r Fig1Results) Table() *stats.Table {
	t := stats.NewTable("Fig. 1 — micro benchmark for replication",
		"db", "rf", "op", "median-latency", "mean-latency", "p95-latency", "ops/sec")
	for _, m := range r {
		t.AddRow(m.DB, m.RF, m.Op,
			m.P50.Round(time.Microsecond).String(),
			m.Mean.Round(time.Microsecond).String(),
			m.P95.Round(time.Microsecond).String(),
			m.Throughput)
	}
	return t
}

// get returns the median latency for a specific point, or -1. The median
// is the robust statistic for shape checks: stop-the-world pause outliers
// dominate means over short measurement windows but barely move p50.
func (r Fig1Results) get(db, op string, rf int) time.Duration {
	for _, m := range r {
		if m.DB == db && m.Op == op && m.RF == rf {
			return m.P50
		}
	}
	return -1
}

// getMean returns the mean latency for a specific point, or -1.
func (r Fig1Results) getMean(db, op string, rf int) time.Duration {
	for _, m := range r {
		if m.DB == db && m.Op == op && m.RF == rf {
			return m.Mean
		}
	}
	return -1
}
