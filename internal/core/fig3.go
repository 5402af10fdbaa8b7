package core

import (
	"fmt"
	"time"

	"cloudbench/internal/sim"
	"cloudbench/internal/stats"
	"cloudbench/internal/ycsb"
)

// ConsistencyResult is one point of Fig. 3: one workload, one consistency
// level, one target throughput.
type ConsistencyResult struct {
	Workload string
	Level    string
	Target   float64 // offered load, ops/s (0 = unthrottled capacity probe)
	Runtime  float64 // measured runtime throughput, ops/s
	Mean     time.Duration
}

// Fig3Results collects the full stress-consistency sweep.
type Fig3Results []ConsistencyResult

// RunFig3 reproduces the stress benchmark for consistency: Cassandra at
// replication factor 3, three rounds (ONE, QUORUM, write-ALL), each
// running the five Table 1 workloads over a sweep of target throughputs
// and recording the runtime throughput (§4.3). HBase is excluded exactly
// as in the paper: it offers no request-time consistency knob.
//
// The target sweep is auto-calibrated per workload: an unthrottled run at
// CL=ONE measures the capacity, and Options.Fig3TargetFractions of that
// capacity become the shared target list for all three levels.
//
// Every (consistency level, workload) pair is a self-contained deployment,
// so the capacity probes fan out across the sweep scheduler first and the
// full level × workload grid fans out after the shared targets are known.
func RunFig3(o Options) (Fig3Results, error) {
	specs := ycsb.StressWorkloads(o.StressRecords)

	// Capacity probe per workload at ONE.
	probes, err := runCells(o.workers(), len(specs), func(i int) (Fig3Results, error) {
		return runFig3Workload(o, Levels()[0], specs[i], []float64{0})
	})
	if err != nil {
		return nil, fmt.Errorf("fig3 capacity probe: %w", err)
	}
	out := Fig3Results(flattenCells(probes))

	// Build shared target lists from the probed capacities.
	capacities := make(map[string]float64)
	for _, m := range out {
		if m.Target == 0 {
			capacities[m.Workload] = m.Runtime
		}
	}
	targets := make(map[string][]float64)
	for wl, cap := range capacities {
		for _, f := range o.Fig3TargetFractions {
			targets[wl] = append(targets[wl], cap*f)
		}
	}

	// Level × workload grid, level-major so the flattened results keep the
	// paper's reporting order (ONE, QUORUM, writeALL).
	type gridCell struct {
		lv   ConsistencySetting
		spec ycsb.Spec
	}
	var cells []gridCell
	for _, lv := range Levels() {
		for _, spec := range specs {
			cells = append(cells, gridCell{lv: lv, spec: spec})
		}
	}
	rounds, err := runCells(o.workers(), len(cells), func(i int) (Fig3Results, error) {
		c := cells[i]
		// Unthrottled (closed-loop) first — the paper detects the *peak*
		// runtime throughput and the closed loop is each level's natural
		// maximum — then the throttled sweep ascending, so the overloaded
		// high-target runs (which leave queue backlogs behind) come last.
		tlist := append([]float64{0}, targets[c.spec.Name]...)
		res, err := runFig3Workload(o, c.lv, c.spec, tlist)
		if err != nil {
			return nil, fmt.Errorf("fig3 %s: %w", c.lv.Name, err)
		}
		return res, nil
	})
	if err != nil {
		return nil, err
	}
	return append(out, flattenCells(rounds)...), nil
}

// RunFig3Level runs the five workloads once, unthrottled, at one
// consistency setting — the capacity measurement underlying one Fig. 3
// series (the Target field of each result is 0). Workloads fan out across
// the sweep scheduler.
func RunFig3Level(o Options, lv ConsistencySetting) (Fig3Results, error) {
	specs := ycsb.StressWorkloads(o.StressRecords)
	rounds, err := runCells(o.workers(), len(specs), func(i int) (Fig3Results, error) {
		return runFig3Workload(o, lv, specs[i], []float64{0})
	})
	if err != nil {
		return nil, err
	}
	return flattenCells(rounds), nil
}

// runFig3Workload runs one workload at one consistency setting through the
// given target-throughput list (0 = unthrottled closed loop) — one sweep
// cell of the Fig. 3 grid.
//
// Each cell gets a fresh deployment. The paper ran the five tests back to
// back on one cluster and §4.3 itself attributes part of its scan result to
// that ordering ("we run this test after the read latest test which has
// repaired the majority of inconsistency"); isolating the workloads keeps
// every measurement independent of its predecessors — and is what makes
// the grid embarrassingly parallel.
func runFig3Workload(o Options, lv ConsistencySetting, spec ycsb.Spec, tlist []float64) (Fig3Results, error) {
	var out Fig3Results
	d := deploy(o, cell{db: "Cassandra", level: lv, rf: 3, spec: spec})
	err := d.drive(func(p *sim.Proc) {
		w := ycsb.NewWorkload(spec)
		d.loadAndSettle(p, w, o.Threads)
		records := w.Inserted()
		for _, target := range tlist {
			run := spec
			run.RecordCount = records
			wl := ycsb.NewWorkload(run)
			res := ycsb.Run(p, d.newClient, wl, ycsb.RunConfig{
				Threads:          o.Threads,
				Ops:              o.StressOps,
				TargetThroughput: target,
				WarmupFraction:   o.WarmupFraction,
			})
			records = wl.Inserted()
			out = append(out, ConsistencyResult{
				Workload: spec.Name,
				Level:    lv.Name,
				Target:   target,
				Runtime:  res.Throughput,
				Mean:     res.MeanLatency(),
			})
			p.Sleep(quiesce)
		}
	})
	return out, err
}

// Figures renders one runtime-vs-target panel per workload with a series
// per consistency level, mirroring the paper's Fig. 3. Capacity-probe
// points (target 0) are omitted.
func (r Fig3Results) Figures() []*stats.Figure {
	var figs []*stats.Figure
	for _, wl := range workloadOrder() {
		f := stats.NewFigure(
			fmt.Sprintf("Fig. 3 (stress consistency): %s — runtime vs target throughput", wl),
			"target (ops/s)", "runtime (ops/s)")
		for _, lv := range Levels() {
			s := f.AddSeries(lv.Name)
			for _, m := range r {
				if m.Workload == wl && m.Level == lv.Name && m.Target > 0 {
					s.Add(float64(int64(m.Target)), m.Runtime)
				}
			}
		}
		figs = append(figs, f)
	}
	return figs
}

// Table renders every Fig. 3 point as one row.
func (r Fig3Results) Table() *stats.Table {
	t := stats.NewTable("Fig. 3 — stress benchmark for consistency (Cassandra, RF=3)",
		"workload", "level", "target-ops/sec", "runtime-ops/sec", "mean-latency")
	for _, m := range r {
		t.AddRow(m.Workload, m.Level, m.Target, m.Runtime,
			m.Mean.Round(time.Microsecond).String())
	}
	return t
}

// peak returns the best runtime throughput for (workload, level) across
// the level's sweep, including its unthrottled closed-loop point, or -1.
func (r Fig3Results) peak(workload, level string) float64 {
	best := -1.0
	for _, m := range r {
		if m.Workload == workload && m.Level == level && m.Runtime > best {
			best = m.Runtime
		}
	}
	return best
}
