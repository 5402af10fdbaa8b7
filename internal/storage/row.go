// Package storage implements the log-structured storage engine shared by
// both databases: a write-ahead log with group commit, a skiplist memtable,
// immutable SSTables with block indexes and bloom filters, an LRU block
// cache, and size-tiered compaction.
//
// The engine stores real data structures in memory while charging disk and
// network costs in virtual time through the cluster package, so performance
// behaviour (cache misses, compaction interference, WAL batching) is
// modeled mechanistically.
package storage

import (
	"slices"
	"strings"

	"cloudbench/internal/kv"
)

// Cell is one field value with the version that wrote it.
type Cell struct {
	Val kv.Value
	Ver kv.Version
}

// fieldCell is one named cell of a Row.
type fieldCell struct {
	Field string
	Cell
}

// Row is the storage representation of a record: per-cell versions enable
// last-write-wins reconciliation of partial updates, and a tombstone
// version shadows older cells after a delete.
//
// Cells are kept in a slice sorted by field name with unique fields, so
// every merge is one walk over both sides and every walk over the cells
// visits them in a fixed order.
type Row struct {
	cells []fieldCell // sorted by Field, unique
	Tomb  kv.Version  // delete timestamp; cells with Ver <= Tomb are dead
}

// NewRow returns an empty row.
func NewRow() *Row { return &Row{} }

// find returns the index of field in r.cells, or the index it would be
// inserted at and false.
func (r *Row) find(field string) (int, bool) {
	lo, hi := 0, len(r.cells)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r.cells[m].Field < field {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo, lo < len(r.cells) && r.cells[lo].Field == field
}

// cell returns the cell stored for field, live or not.
func (r *Row) cell(field string) (Cell, bool) {
	if i, ok := r.find(field); ok {
		return r.cells[i].Cell, true
	}
	return Cell{}, false
}

func byField(a, b fieldCell) int { return strings.Compare(a.Field, b.Field) }

// Apply merges a write of rec at version ver into the row, keeping the
// newest version of each cell. Merged into an empty row, the record's
// cells land in one allocation of exactly len(rec) cells.
func (r *Row) Apply(rec kv.Record, ver kv.Version) {
	var buf [16]fieldCell // YCSB's ten-field writes sort on the stack
	w := buf[:0]
	for f, v := range rec {
		w = append(w, fieldCell{Field: f, Cell: Cell{Val: v, Ver: ver}})
	}
	slices.SortFunc(w, byField)
	r.merge(w)
}

// Delete applies a tombstone at version ver.
func (r *Row) Delete(ver kv.Version) {
	if ver > r.Tomb {
		r.Tomb = ver
	}
}

// MergeFrom folds another row's cells and tombstone into r (cell-wise
// newest wins, r's cell kept on a version tie). It is the reconciliation
// step used when reading across memtable and SSTables, and between
// replicas. r never shares cell storage with o afterwards.
func (r *Row) MergeFrom(o *Row) {
	if o == nil {
		return
	}
	if o.Tomb > r.Tomb {
		r.Tomb = o.Tomb
	}
	r.merge(o.cells)
}

// merge folds src (sorted by field, unique) into r.cells. The first pass
// updates the fields both sides share in place and counts the fields
// missing from r. When none are missing — a replica fold, or an update of
// fields the row already holds — that pass is the whole merge. Otherwise
// one sorted merge builds the union in a slice sized once; into an empty
// row, as every Engine.Get and Engine.Scan level merge starts, that is a
// copy of src.
func (r *Row) merge(src []fieldCell) {
	dst := r.cells
	missing, i := 0, 0
	for j := range src {
		f := src[j].Field
		for i < len(dst) && dst[i].Field < f {
			i++
		}
		if i < len(dst) && dst[i].Field == f {
			if src[j].Ver > dst[i].Ver {
				dst[i].Cell = src[j].Cell
			}
			i++
			continue
		}
		missing++
	}
	if missing == 0 {
		return
	}
	out := make([]fieldCell, 0, len(dst)+missing)
	i = 0
	for j := range src {
		f := src[j].Field
		for i < len(dst) && dst[i].Field < f {
			out = append(out, dst[i])
			i++
		}
		if i < len(dst) && dst[i].Field == f {
			continue // folded in the first pass; dst[i] is copied by a later step
		}
		out = append(out, src[j])
	}
	r.cells = append(out, dst[i:]...)
}

// Live reports whether the row has any cell newer than its tombstone.
func (r *Row) Live() bool {
	for i := range r.cells {
		if r.cells[i].Ver > r.Tomb {
			return true
		}
	}
	return false
}

// liveCells counts the cells newer than the tombstone.
func (r *Row) liveCells() int {
	n := 0
	for i := range r.cells {
		if r.cells[i].Ver > r.Tomb {
			n++
		}
	}
	return n
}

// Record materializes the row's live cells as a Record, or nil if the row
// is fully dead.
func (r *Row) Record() kv.Record {
	n := r.liveCells()
	if n == 0 {
		return nil
	}
	return r.liveRecord(n)
}

// liveRecord builds a Record of the row's n live cells.
func (r *Row) liveRecord(n int) kv.Record {
	rec := make(kv.Record, n)
	for i := range r.cells {
		if c := &r.cells[i]; c.Ver > r.Tomb {
			rec[c.Field] = c.Val
		}
	}
	return rec
}

// Project materializes the row's live cells restricted to fields as a new
// Record; a nil or empty field list selects every live cell. It equals
// r.Record().Project(fields) without building the full record first, and
// like it returns an empty, non-nil Record when nothing matches.
func (r *Row) Project(fields []string) kv.Record {
	if len(fields) == 0 {
		return r.liveRecord(r.liveCells())
	}
	rec := make(kv.Record, len(fields))
	for _, f := range fields {
		if i, ok := r.find(f); ok && r.cells[i].Ver > r.Tomb {
			rec[f] = r.cells[i].Val
		}
	}
	return rec
}

// Version returns the row's overall version: the maximum of its cell
// versions and tombstone. Replica digests compare this value.
func (r *Row) Version() kv.Version {
	v := r.Tomb
	for i := range r.cells {
		if r.cells[i].Ver > v {
			v = r.cells[i].Ver
		}
	}
	return v
}

// Bytes returns the row's modeled on-disk size.
func (r *Row) Bytes() int {
	n := 16 // key/row overhead
	for i := range r.cells {
		n += len(r.cells[i].Field) + 10 + r.cells[i].Val.Bytes()
	}
	return n
}

// Clone returns a deep copy of the row's cells (values are immutable by
// convention).
func (r *Row) Clone() *Row {
	return &Row{cells: slices.Clone(r.cells), Tomb: r.Tomb}
}
