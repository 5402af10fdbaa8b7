package core

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// The parallel sweep scheduler.
//
// Every figure of the paper is a sweep over independent cells — (database,
// replication factor) for Fig. 1 and Fig. 2, (consistency level, workload)
// for Fig. 3, (mode, replication factor) for the ablations. Each cell is a
// self-contained deterministic simulation: it builds its own sim.Kernel
// from Options.Seed, runs single-threaded in virtual time, and shares no
// state with any other cell. The sweep is therefore embarrassingly parallel
// across host CPUs, and parallel execution is bit-identical to sequential
// execution: the per-cell seed derivation is unchanged and results are
// reassembled in canonical sweep order regardless of completion order.
//
// runCells is the single entry point; RunFig1/RunFig2/RunFig3, the
// ablations, RunSLASearch, and the instrumented grids (through runGrid)
// all submit their cells through it.

// workers resolves the effective worker-pool size: Options.Parallelism when
// set, otherwise one worker per available CPU.
func (o Options) workers() int {
	if o.Parallelism > 0 {
		return o.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// runCells executes n independent cells on a bounded pool of workers and
// returns their results in cell order. Cells are claimed in index order, so
// with one worker the execution order matches the legacy sequential loops
// exactly. The first cell error stops further cells from being claimed;
// cells already claimed run to completion. Because claims are in index
// order, every cell below the first erroring one completes, so the
// lowest-indexed recorded error — the one returned — is a deterministic
// function of the cells, independent of host scheduling. A panic inside a
// cell (e.g. a simulation invariant violation) is re-raised on the calling
// goroutine, as it would be in a sequential loop.
func runCells[T any](workers, n int, run func(i int) (T, error)) ([]T, error) {
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		// Sequential fast path: no goroutines, stop at the first error.
		for i := 0; i < n; i++ {
			v, err := run(i)
			if err != nil {
				return nil, err
			}
			out[i] = v
		}
		return out, nil
	}

	var (
		next     atomic.Int64 // next unclaimed cell index
		canceled atomic.Bool  // set on first error; unstarted cells skip
		errs     = make([]error, n)
		panicked atomic.Pointer[any]
		wg       sync.WaitGroup
	)
	next.Store(-1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				if canceled.Load() {
					return
				}
				i := int(next.Add(1))
				if i >= n {
					return
				}
				func() {
					defer func() {
						if r := recover(); r != nil {
							panicked.CompareAndSwap(nil, &r)
							canceled.Store(true)
						}
					}()
					v, err := run(i)
					if err != nil {
						errs[i] = err
						canceled.Store(true)
						return
					}
					out[i] = v
				}()
			}
		}()
	}
	wg.Wait()
	if p := panicked.Load(); p != nil {
		panic(*p)
	}
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return out, nil
}

// flattenCells concatenates per-cell result slices in cell order.
func flattenCells[S ~[]T, T any](cells []S) S {
	var total int
	for _, c := range cells {
		total += len(c)
	}
	out := make(S, 0, total)
	for _, c := range cells {
		out = append(out, c...)
	}
	return out
}

// dbRFCell is one (database, replication factor) point of a Fig. 1/2 sweep.
type dbRFCell struct {
	db string
	rf int
}

// dbRFCells enumerates the canonical Fig. 1/2 sweep order: databases in
// paper order, replication factors ascending within each.
func dbRFCells(o Options) []dbRFCell {
	cells := make([]dbRFCell, 0, 2*len(o.ReplicationFactors))
	for _, db := range []string{"HBase", "Cassandra"} {
		for _, rf := range o.ReplicationFactors {
			cells = append(cells, dbRFCell{db: db, rf: rf})
		}
	}
	return cells
}
