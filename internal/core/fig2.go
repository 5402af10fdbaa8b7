package core

import (
	"fmt"
	"time"

	"cloudbench/internal/sim"
	"cloudbench/internal/stats"
	"cloudbench/internal/ycsb"
)

// StressResult is one point of Fig. 2: one database, one replication
// factor, one Table 1 workload, run closed-loop at full speed.
type StressResult struct {
	DB         string
	RF         int
	Workload   string
	Throughput float64 // peak runtime throughput, ops/s
	Mean       time.Duration
	P95        time.Duration
	Errors     int64
}

// Fig2Results collects the full stress-replication sweep.
type Fig2Results []StressResult

// RunFig2 reproduces the stress benchmark for replication: six rounds per
// database, one per replication factor; each round loads the table once
// and runs the five Table 1 workloads one after another (§4.2's order:
// read latest, scan short ranges, read mostly, read-modify-write,
// read & update) with a constant number of client threads at full speed,
// detecting the peak runtime throughput and corresponding latency. Rounds
// are independent simulations and fan out across the sweep scheduler
// (Options.Parallelism).
func RunFig2(o Options) (Fig2Results, error) {
	cells := dbRFCells(o)
	rounds, err := runCells(o.workers(), len(cells), func(i int) (Fig2Results, error) {
		c := cells[i]
		res, err := RunFig2Round(o, c.db, c.rf)
		if err != nil {
			return nil, fmt.Errorf("fig2 %s rf=%d: %w", c.db, c.rf, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	return flattenCells(rounds), nil
}

// RunFig2Round runs one round of the stress benchmark for replication:
// one database at one replication factor, the five Table 1 workloads in
// paper order. Cassandra runs ONE/ONE.
func RunFig2Round(o Options, db string, rf int) (Fig2Results, error) {
	loadSpec := ycsb.ReadMostly(o.StressRecords)
	d := deploy(o, cell{db: db, level: Levels()[0], rf: rf, spec: loadSpec})
	var out Fig2Results
	err := d.drive(func(p *sim.Proc) {
		w := ycsb.NewWorkload(loadSpec)
		d.loadAndSettle(p, w, o.Threads)
		records := w.Inserted()
		for _, spec := range ycsb.StressWorkloads(records) {
			spec.RecordCount = records
			wl := ycsb.NewWorkload(spec)
			res := ycsb.Run(p, d.newClient, wl, ycsb.RunConfig{
				Threads:        o.Threads,
				Ops:            o.StressOps,
				WarmupFraction: o.WarmupFraction,
			})
			records = wl.Inserted()
			out = append(out, StressResult{
				DB:         db,
				RF:         rf,
				Workload:   spec.Name,
				Throughput: res.Throughput,
				Mean:       res.MeanLatency(),
				P95:        res.Overall.Percentile(95),
				Errors:     res.Errors,
			})
			p.Sleep(quiesce / 4)
		}
	})
	return out, err
}

// ThroughputFigures renders one throughput-vs-RF panel per workload.
func (r Fig2Results) ThroughputFigures() []*stats.Figure {
	return r.figures("runtime throughput (ops/s)", func(s StressResult) float64 {
		return s.Throughput
	})
}

// LatencyFigures renders one latency-vs-RF panel per workload.
func (r Fig2Results) LatencyFigures() []*stats.Figure {
	return r.figures("mean latency (µs)", func(s StressResult) float64 {
		return float64(s.Mean.Microseconds())
	})
}

func (r Fig2Results) figures(ylabel string, y func(StressResult) float64) []*stats.Figure {
	var figs []*stats.Figure
	for _, wl := range workloadOrder() {
		f := stats.NewFigure(
			fmt.Sprintf("Fig. 2 (stress replication): %s — %s vs replication factor", wl, ylabel),
			"replication-factor", ylabel)
		for _, db := range []string{"HBase", "Cassandra"} {
			s := f.AddSeries(db)
			for _, m := range r {
				if m.DB == db && m.Workload == wl {
					s.Add(float64(m.RF), y(m))
				}
			}
		}
		figs = append(figs, f)
	}
	return figs
}

func workloadOrder() []string {
	return []string{"read-latest", "scan-short-ranges", "read-mostly", "read-modify-write", "read-update"}
}

// Table renders every Fig. 2 point as one row.
func (r Fig2Results) Table() *stats.Table {
	t := stats.NewTable("Fig. 2 — stress benchmark for replication",
		"db", "rf", "workload", "ops/sec", "mean-latency", "p95-latency", "errors")
	for _, m := range r {
		t.AddRow(m.DB, m.RF, m.Workload, m.Throughput,
			m.Mean.Round(time.Microsecond).String(),
			m.P95.Round(time.Microsecond).String(), m.Errors)
	}
	return t
}

// get returns the (throughput, latency) for a point, or (-1, -1).
func (r Fig2Results) get(db, workload string, rf int) (float64, time.Duration) {
	for _, m := range r {
		if m.DB == db && m.Workload == workload && m.RF == rf {
			return m.Throughput, m.Mean
		}
	}
	return -1, -1
}
