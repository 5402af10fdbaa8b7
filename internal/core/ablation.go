package core

import (
	"fmt"
	"time"

	"cloudbench/internal/sim"
	"cloudbench/internal/stats"
	"cloudbench/internal/ycsb"
)

// AblationReadRepair isolates the cause of the paper's F4 finding (§4.1:
// Cassandra read latency rising beyond RF 3): it reruns the micro
// update+read pipeline at each replication factor with read repair on and
// off. The "off" series should flatten.
func AblationReadRepair(o Options) (*stats.Figure, error) {
	modes := []struct {
		name   string
		chance float64
	}{{"read-repair-on", o.ReadRepairChance}, {"read-repair-off", 0}}
	f := stats.NewFigure("Ablation A1 — Cassandra micro read latency vs RF, read repair on/off",
		"replication-factor", "mean read latency (µs)")
	cells := abCells(len(modes), o.ReplicationFactors)
	vals, err := runCells(o.workers(), len(cells), func(i int) (float64, error) {
		c := cells[i]
		opts := o
		opts.ReadRepairChance = modes[c.mode].chance
		res, err := RunFig1Round(opts, "Cassandra", c.rf)
		if err != nil {
			return 0, fmt.Errorf("ablation read-repair rf=%d: %w", c.rf, err)
		}
		return float64(res.get("Cassandra", "read", c.rf).Microseconds()), nil
	})
	if err != nil {
		return nil, err
	}
	for mi, mode := range modes {
		s := f.AddSeries(mode.name)
		for ri, rf := range o.ReplicationFactors {
			s.Add(float64(rf), vals[mi*len(o.ReplicationFactors)+ri])
		}
	}
	return f, nil
}

// abCell is one (mode, replication factor) point of an ablation sweep.
type abCell struct {
	mode int
	rf   int
}

// abCells enumerates a mode × RF ablation grid in mode-major order, which
// matches the legacy sequential nesting (outer mode loop, inner RF loop).
func abCells(modes int, rfs []int) []abCell {
	cells := make([]abCell, 0, modes*len(rfs))
	for m := 0; m < modes; m++ {
		for _, rf := range rfs {
			cells = append(cells, abCell{mode: m, rf: rf})
		}
	}
	return cells
}

// AblationHBaseSyncRepl isolates the cause of F2 (§4.1: HBase write
// latency flat in RF because replication is in-memory): it reruns the
// micro update test with the paper-described in-memory replication versus
// synchronous disk replication. The sync series should climb with RF.
func AblationHBaseSyncRepl(o Options) (*stats.Figure, error) {
	modes := []struct {
		name string
		mem  bool
	}{{"in-memory-replication", true}, {"synchronous-replication", false}}
	f := stats.NewFigure("Ablation A2 — HBase micro update latency vs RF, in-memory vs sync replication",
		"replication-factor", "mean update latency (µs)")
	cells := abCells(len(modes), o.ReplicationFactors)
	vals, err := runCells(o.workers(), len(cells), func(i int) (float64, error) {
		c := cells[i]
		opts := o
		opts.MemReplication = modes[c.mode].mem
		res, err := RunFig1Round(opts, "HBase", c.rf)
		if err != nil {
			return 0, fmt.Errorf("ablation sync-repl rf=%d: %w", c.rf, err)
		}
		return float64(res.get("HBase", "update", c.rf).Microseconds()), nil
	})
	if err != nil {
		return nil, err
	}
	for mi, mode := range modes {
		s := f.AddSeries(mode.name)
		for ri, rf := range o.ReplicationFactors {
			s.Add(float64(rf), vals[mi*len(o.ReplicationFactors)+ri])
		}
	}
	return f, nil
}

// AblationClientThreads reproduces the §3.1 methodology warning: with a
// fixed offered load, too few client threads inflate measured latency for
// non-database reasons (requests queue in the client). It sweeps the
// thread count at a constant target throughput against HBase.
func AblationClientThreads(o Options, threadCounts []int, target float64) (*stats.Figure, error) {
	if len(threadCounts) == 0 {
		threadCounts = []int{1, 2, 4, 8, 16, 32}
	}
	f := stats.NewFigure(
		fmt.Sprintf("Ablation A3 — intended latency vs client threads at %d ops/s offered", int(target)),
		"client-threads", "mean intended latency (µs)")
	s := f.AddSeries("HBase read-mostly")
	vals, err := runCells(o.workers(), len(threadCounts), func(i int) (float64, error) {
		threads := threadCounts[i]
		spec := ycsb.ReadMostly(o.StressRecords)
		d := deploy(o, cell{db: "HBase", rf: 3, spec: spec})
		var mean time.Duration
		err := d.drive(func(p *sim.Proc) {
			w := ycsb.NewWorkload(spec)
			d.loadAndSettle(p, w, o.Threads)
			run := ycsb.NewWorkload(ycsb.ReadMostly(w.Inserted()))
			res := ycsb.Run(p, d.newClient, run, ycsb.RunConfig{
				Threads:          threads,
				Ops:              o.StressOps,
				TargetThroughput: target,
				WarmupFraction:   o.WarmupFraction,
			})
			// Intended latency (from each op's scheduled start) is what
			// exposes client-side queueing when threads are too few.
			mean = res.Intended.Mean()
		})
		if err != nil {
			return 0, fmt.Errorf("ablation threads=%d: %w", threads, err)
		}
		return float64(mean.Microseconds()), nil
	})
	if err != nil {
		return nil, err
	}
	for i, threads := range threadCounts {
		s.Add(float64(threads), vals[i])
	}
	return f, nil
}
