package storage

import (
	"math/rand"
	"sort"

	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
)

// Config parameterizes an Engine.
type Config struct {
	MemtableBytes   int64 // flush threshold
	BlockBytes      int   // SSTable block size
	CacheBytes      int64 // block cache budget
	BloomBitsPerKey int
	// CompactMinTables is the number of similar-sized tables that
	// triggers a size-tiered compaction of that tier.
	CompactMinTables int
	// SyncWAL controls whether writes wait for the WAL batch to reach
	// the device before acknowledging.
	SyncWAL bool
}

// DefaultConfig returns engine parameters in line with HBase/Cassandra
// defaults, scaled for simulation.
func DefaultConfig() Config {
	return Config{
		MemtableBytes:    4 << 20,
		BlockBytes:       64 << 10,
		CacheBytes:       8 << 20,
		BloomBitsPerKey:  10,
		CompactMinTables: 4,
		SyncWAL:          true,
	}
}

// Engine is one node's log-structured store: WAL → memtable → SSTables,
// with a block cache and background flush and compaction processes that
// contend for the same simulated devices as foreground requests.
type Engine struct {
	k   *sim.Kernel
	cfg Config
	io  TableIO
	wal *WAL

	mem      *skiplist
	memBytes int64
	imm      []*skiplist // snapshots being flushed, newest first
	tables   []*SSTable  // newest first
	cache    *BlockCache
	rng      *rand.Rand

	nextTableID int64
	compacting  bool

	// OnWALSync, when non-nil, observes each synchronous WAL append with
	// the virtual time it began — the tracing layer's WAL-phase hook.
	// Async appends are off the ack path and are not reported.
	//
	//simlint:hook
	OnWALSync func(p *sim.Proc, start sim.Time)

	// Metrics.
	Puts, Gets, Scans    int64
	Flushes, Compactions int64
	CompactedBytes       int64
}

// NewEngine returns an engine writing tables through io and logging through
// wal. The rng seeds the memtable skiplist deterministically.
func NewEngine(k *sim.Kernel, cfg Config, io TableIO, log AppendLog, seed int64) *Engine {
	e := &Engine{
		k:     k,
		cfg:   cfg,
		io:    io,
		wal:   NewWAL(k, log),
		cache: NewBlockCache(cfg.CacheBytes),
		rng:   rand.New(rand.NewSource(seed)),
	}
	e.mem = newSkiplist(e.rng)
	return e
}

// Cache exposes the engine's block cache for reporting.
func (e *Engine) Cache() *BlockCache { return e.cache }

// WALStats exposes the engine's WAL for reporting.
func (e *Engine) WALStats() *WAL { return e.wal }

// Tables returns the current number of SSTables.
func (e *Engine) Tables() int { return len(e.tables) }

// Apply writes rec at version ver to key: WAL append (when SyncWAL), then
// memtable apply, then a flush if the memtable is full.
func (e *Engine) Apply(p *sim.Proc, key kv.Key, rec kv.Record, ver kv.Version) {
	e.Puts++
	size := rec.Bytes() + len(key) + 16
	e.walAppend(p, size)
	row := e.mem.GetOrCreate(key)
	row.Apply(rec, ver)
	e.memBytes += int64(size)
	e.maybeFlush()
}

// walAppend logs size bytes, blocking until durable when SyncWAL is set
// and reporting the sync through the OnWALSync hook.
func (e *Engine) walAppend(p *sim.Proc, size int) {
	if !e.cfg.SyncWAL {
		e.wal.AppendAsync(size)
		return
	}
	if e.OnWALSync != nil {
		start := p.Now()
		e.wal.Append(p, size)
		e.OnWALSync(p, start)
		return
	}
	e.wal.Append(p, size)
}

// ApplyDelete writes a tombstone at key.
func (e *Engine) ApplyDelete(p *sim.Proc, key kv.Key, ver kv.Version) {
	e.Puts++
	size := len(key) + 24
	e.walAppend(p, size)
	row := e.mem.GetOrCreate(key)
	row.Delete(ver)
	e.memBytes += int64(size)
	e.maybeFlush()
}

// Get returns the reconciled row at key (merged across memtable, flushing
// snapshots, and SSTables), or nil if the key has never been written. The
// caller owns the returned row. Deleted rows are returned with their
// tombstone so replica reconciliation can propagate deletes; use Live() to
// test visibility.
func (e *Engine) Get(p *sim.Proc, key kv.Key) *Row {
	e.Gets++
	var out *Row
	merge := func(r *Row) {
		if r == nil {
			return
		}
		if out == nil {
			out = NewRow()
		}
		out.MergeFrom(r)
	}
	merge(e.mem.Get(key))
	for _, m := range e.imm {
		merge(m.Get(key))
	}
	for _, t := range e.tables {
		if r := t.Get(p, e.io, e.cache, key); r != nil {
			merge(r)
		}
	}
	return out
}

// rowIter is a merge cursor over one level (memtable, immutable memtable,
// or SSTable). Using the iterators' method sets directly — instead of a
// struct of captured method values — keeps Scan free of per-source closure
// allocations and of nullable function fields (simlint's hookguard would
// demand a nil check before every call through those).
type rowIter interface {
	Valid() bool
	Key() kv.Key
	Row() *Row
	Next()
}

// ScanRow is one result of Engine.Scan.
type ScanRow struct {
	Key kv.Key
	Row *Row
}

// Scan returns up to limit live rows with key ≥ start, in key order,
// reconciled across all levels. I/O is charged per block entered. The
// caller owns the returned rows: each is a fresh merge, never a row the
// memtable or an SSTable still holds, so MergeScans may fold into them.
func (e *Engine) Scan(p *sim.Proc, start kv.Key, limit int) []ScanRow {
	e.Scans++
	var srcs []rowIter
	srcs = append(srcs, e.mem.Seek(start))
	for _, m := range e.imm {
		srcs = append(srcs, m.Seek(start))
	}
	for _, t := range e.tables {
		srcs = append(srcs, t.Iter(p, e.io, e.cache, start))
	}
	var out []ScanRow
	for len(out) < limit {
		// Find the smallest current key across sources.
		var minKey kv.Key
		found := false
		for _, s := range srcs {
			if s.Valid() && (!found || s.Key() < minKey) {
				minKey = s.Key()
				found = true
			}
		}
		if !found {
			break
		}
		row := NewRow()
		for _, s := range srcs {
			if s.Valid() && s.Key() == minKey {
				row.MergeFrom(s.Row())
				s.Next()
			}
		}
		if row.Live() {
			out = append(out, ScanRow{Key: minKey, Row: row})
		}
	}
	return out
}

// MergeScans merges per-replica Scan results into up to limit live rows in
// key order. Each part must be key-sorted with unique keys, as Scan returns
// them. Rows sharing a key are folded in part order with the first part's
// row as the base, so under MergeFrom's strict newest-wins rule the earliest
// part keeps an equal-version cell. The fold mutates those base rows, which
// is why parts must be caller-owned.
func MergeScans(parts [][]ScanRow, limit int) []ScanRow {
	pos := make([]int, len(parts))
	out := make([]ScanRow, 0, limit)
	for {
		// The first part holding the smallest current key is the base;
		// no earlier part can hold that key.
		base := -1
		var key kv.Key
		for i, part := range parts {
			if pos[i] < len(part) && (base < 0 || part[pos[i]].Key < key) {
				base, key = i, part[pos[i]].Key
			}
		}
		if base < 0 {
			return out
		}
		row := parts[base][pos[base]].Row
		pos[base]++
		for i := base + 1; i < len(parts); i++ {
			if pos[i] < len(parts[i]) && parts[i][pos[i]].Key == key {
				row.MergeFrom(parts[i][pos[i]].Row)
				pos[i]++
			}
		}
		if row.Live() {
			out = append(out, ScanRow{Key: key, Row: row})
			if len(out) == limit {
				return out
			}
		}
	}
}

// maybeFlush rotates a full memtable into the flushing list and starts a
// background flush process.
func (e *Engine) maybeFlush() {
	if e.memBytes < e.cfg.MemtableBytes {
		return
	}
	e.ForceFlush()
}

// ForceFlush rotates the current memtable (if non-empty) and flushes it in
// the background.
func (e *Engine) ForceFlush() {
	if e.mem.Len() == 0 {
		return
	}
	snap := e.mem
	e.imm = append([]*skiplist{snap}, e.imm...)
	e.mem = newSkiplist(e.rng)
	e.memBytes = 0
	// Flushes are spawned from whatever request filled the memtable;
	// detach the inherited trace context so flush work (including HDFS
	// pipeline writes) bills to the background class, not to that op.
	e.k.Go("flush", func(p *sim.Proc) { p.SetTraceCtx(nil); e.flush(p, snap) })
}

func (e *Engine) flush(p *sim.Proc, snap *skiplist) {
	entries := make([]TableEntry, 0, snap.Len())
	for it := snap.First(); it.Valid(); it.Next() {
		entries = append(entries, TableEntry{Key: it.Key(), Row: it.Row()})
	}
	e.nextTableID++
	t := BuildTable(e.nextTableID, entries, e.cfg.BlockBytes, e.cfg.BloomBitsPerKey)
	e.io.WriteTable(p, t.ID, t.Bytes())
	t.WarmCache(e.cache)
	// Install: newest first, remove the snapshot from the flushing list.
	e.tables = append([]*SSTable{t}, e.tables...)
	for i, m := range e.imm {
		if m == snap {
			e.imm = append(e.imm[:i], e.imm[i+1:]...)
			break
		}
	}
	e.Flushes++
	e.maybeCompact()
}

// tier buckets table sizes by power of four starting at 1 MB, mirroring
// size-tiered compaction's "similar size" grouping.
func tier(bytes int64) int {
	t := 0
	for bytes >= 1<<20 {
		bytes >>= 2
		t++
	}
	return t
}

// maybeCompact starts a background size-tiered compaction when some tier
// has at least CompactMinTables tables. One compaction runs at a time.
func (e *Engine) maybeCompact() {
	if e.compacting {
		return
	}
	byTier := map[int][]*SSTable{}
	for _, t := range e.tables {
		tr := tier(t.Bytes())
		byTier[tr] = append(byTier[tr], t)
	}
	// Visit tiers smallest-first: which tier compacts must not depend on
	// map iteration order, or the whole downstream event schedule (and
	// with it same-seed reproducibility) drifts between runs.
	tiers := make([]int, 0, len(byTier))
	for tr := range byTier {
		tiers = append(tiers, tr)
	}
	sort.Ints(tiers)
	for _, tr := range tiers {
		group := byTier[tr]
		if len(group) >= e.cfg.CompactMinTables {
			e.compacting = true
			inputs := group
			// Same detach as flush: compaction is background work.
			e.k.Go("compact", func(p *sim.Proc) { p.SetTraceCtx(nil); e.compact(p, inputs) })
			return
		}
	}
}

// compact merges inputs (which are a subset of e.tables, newest first)
// into one table, charging sequential read of the inputs and sequential
// write of the output.
func (e *Engine) compact(p *sim.Proc, inputs []*SSTable) {
	var inBytes int64
	inSet := make(map[*SSTable]bool, len(inputs))
	for _, t := range inputs {
		inBytes += t.Bytes()
		inSet[t] = true
		e.io.ReadTable(p, t.ID, t.Bytes())
	}

	// Merge newest-first: cell-wise MergeFrom makes order irrelevant,
	// but iterating tables in order keeps allocation predictable.
	merged := make(map[kv.Key]*Row)
	var keys []kv.Key
	for _, t := range inputs {
		for _, en := range t.entries {
			if r, ok := merged[en.Key]; ok {
				r.MergeFrom(en.Row)
			} else {
				keys = append(keys, en.Key)
				merged[en.Key] = en.Row.Clone()
			}
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	entries := make([]TableEntry, 0, len(keys))
	for _, k := range keys {
		entries = append(entries, TableEntry{Key: k, Row: merged[k]})
	}
	e.nextTableID++
	out := BuildTable(e.nextTableID, entries, e.cfg.BlockBytes, e.cfg.BloomBitsPerKey)
	e.io.WriteTable(p, out.ID, out.Bytes())
	out.WarmCache(e.cache)

	// Replace inputs with the merged table, preserving relative order of
	// the survivors; the merged table takes the position of the oldest
	// input so newer tables still shadow it.
	var next []*SSTable
	inserted := false
	for _, t := range e.tables {
		if inSet[t] {
			if !inserted {
				// Will insert after all survivors newer than the
				// oldest input; simplest correct placement is at the
				// position of the first (newest) input since inputs
				// hold disjoint data after merging.
				next = append(next, out)
				inserted = true
			}
			continue
		}
		next = append(next, t)
	}
	if !inserted {
		next = append(next, out)
	}
	e.tables = next
	for _, t := range inputs {
		e.io.DeleteTable(t.ID)
	}
	e.Compactions++
	e.CompactedBytes += inBytes
	e.compacting = false
	e.maybeCompact()
}
