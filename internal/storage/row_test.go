package storage

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"cloudbench/internal/cluster"
	"cloudbench/internal/kv"
	"cloudbench/internal/sim"
)

// refRow is the map-backed row representation that the sorted-cell Row
// replaced, kept as the reference the fuzz and property tests compare
// against. Its rules are the definition of correct: per-cell newest
// version wins with the incumbent kept on a tie, and a tombstone shadows
// cells at or below its version.
type refRow struct {
	cells map[string]Cell
	tomb  kv.Version
}

func newRefRow() *refRow { return &refRow{cells: map[string]Cell{}} }

func (r *refRow) apply(rec kv.Record, ver kv.Version) {
	for f, v := range rec {
		if c, ok := r.cells[f]; !ok || ver > c.Ver {
			r.cells[f] = Cell{Val: v, Ver: ver}
		}
	}
}

func (r *refRow) delete(ver kv.Version) {
	if ver > r.tomb {
		r.tomb = ver
	}
}

func (r *refRow) mergeFrom(o *refRow) {
	if o.tomb > r.tomb {
		r.tomb = o.tomb
	}
	for f, c := range o.cells {
		if mine, ok := r.cells[f]; !ok || c.Ver > mine.Ver {
			r.cells[f] = c
		}
	}
}

func (r *refRow) live() bool {
	for _, c := range r.cells {
		if c.Ver > r.tomb {
			return true
		}
	}
	return false
}

func (r *refRow) record() kv.Record {
	if !r.live() {
		return nil
	}
	rec := kv.Record{}
	for f, c := range r.cells {
		if c.Ver > r.tomb {
			rec[f] = c.Val
		}
	}
	return rec
}

func (r *refRow) version() kv.Version {
	v := r.tomb
	for _, c := range r.cells {
		if c.Ver > v {
			v = c.Ver
		}
	}
	return v
}

func (r *refRow) bytes() int {
	n := 16
	for f, c := range r.cells {
		n += len(f) + 10 + c.Val.Bytes()
	}
	return n
}

func (r *refRow) clone() *refRow {
	c := &refRow{cells: make(map[string]Cell, len(r.cells)), tomb: r.tomb}
	for f, cell := range r.cells {
		c.cells[f] = cell
	}
	return c
}

// checkRow reports how got disagrees with the reference want, or "".
func checkRow(got *Row, want *refRow) string {
	for i := 1; i < len(got.cells); i++ {
		if got.cells[i-1].Field >= got.cells[i].Field {
			return fmt.Sprintf("cells not sorted and unique: %q then %q", got.cells[i-1].Field, got.cells[i].Field)
		}
	}
	if len(got.cells) != len(want.cells) {
		return fmt.Sprintf("%d cells, want %d", len(got.cells), len(want.cells))
	}
	for _, c := range got.cells {
		if w, ok := want.cells[c.Field]; !ok || !reflect.DeepEqual(w, c.Cell) {
			return fmt.Sprintf("cell %q = %+v, want %+v (present %v)", c.Field, c.Cell, w, ok)
		}
	}
	switch {
	case got.Tomb != want.tomb:
		return fmt.Sprintf("tomb %d, want %d", got.Tomb, want.tomb)
	case !reflect.DeepEqual(got.Record(), want.record()):
		return fmt.Sprintf("Record %v, want %v", got.Record(), want.record())
	case got.Version() != want.version():
		return fmt.Sprintf("Version %d, want %d", got.Version(), want.version())
	case got.Bytes() != want.bytes():
		return fmt.Sprintf("Bytes %d, want %d", got.Bytes(), want.bytes())
	case got.Live() != want.live():
		return fmt.Sprintf("Live %v, want %v", got.Live(), want.live())
	}
	return ""
}

// fuzzFields share prefixes so sorting by field name is exercised beyond
// single characters.
var fuzzFields = []string{"f", "f0", "f1", "f10", "f2", "field", "g", "a"}

// fieldsOf returns the fuzzFields picked by mask.
func fieldsOf(mask byte) []string {
	var out []string
	for i, f := range fuzzFields {
		if mask&(1<<i) != 0 {
			out = append(out, f)
		}
	}
	return out
}

// FuzzRow drives random Apply/Delete/MergeFrom/Clone sequences over a few
// rows and multi-field partial records, checking each row after every step
// against the map-backed reference. Versions come from a small range so
// equal-version writes with different values — the tie rule — are common.
// Each step consumes three bytes: op and row slots, a field mask, and a
// version; sequences are cut at maxFuzzSteps to keep every run cheap.
func FuzzRow(f *testing.F) {
	const slots, maxFuzzSteps = 3, 64
	f.Add([]byte{0x00, 0xff, 3, 0x10, 0x0f, 3, 0x22, 0, 0, 0x33, 0, 0, 0x08, 0x81, 5})
	f.Add([]byte{0x00, 0x55, 1, 0x09, 0xaa, 1, 0x23, 0, 0, 0x44, 0x0f, 0, 0x11, 0x03, 2, 0x2a, 0, 4})
	f.Add([]byte{0x00, 0x0f, 2, 0x10, 0, 2, 0x08, 0xf0, 1, 0x01, 0xff, 9, 0x2b, 0, 0, 0x2c, 0, 0})
	// Version ties: an equal-version Apply to row 0, then row 1 written at
	// the same version merged into row 0; the incumbent must keep its cell.
	f.Add([]byte{0x00, 0x03, 3, 0x00, 0x01, 3, 0x0a, 0x03, 3, 0x30, 0, 0})
	// Union merges: a field sorting before every cell, then one between.
	f.Add([]byte{0x00, 0x40, 1, 0x00, 0x80, 2, 0x00, 0x01, 3})
	f.Fuzz(func(t *testing.T, ops []byte) {
		rows := make([]*Row, slots)
		refs := make([]*refRow, slots)
		for i := range rows {
			rows[i], refs[i] = NewRow(), newRefRow()
		}
		for step := 0; step < maxFuzzSteps && 3*step+2 < len(ops); step++ {
			b0 := ops[3*step]
			op, a, b := b0%5, int(b0>>3)%slots, int(b0>>5)%slots
			fields, ver := fieldsOf(ops[3*step+1]), kv.Version(ops[3*step+2]%16)
			var rec kv.Record
			switch op {
			case 0, 1:
				rec = kv.Record{}
				for _, fld := range fields {
					rec[fld] = kv.SizedValue(step + 1) // distinct per step: ties are visible
				}
				rows[a].Apply(rec, ver)
				refs[a].apply(rec, ver)
			case 2:
				rows[a].Delete(ver)
				refs[a].delete(ver)
			case 3:
				rows[a].MergeFrom(rows[b])
				refs[a].mergeFrom(refs[b])
			case 4:
				rows[a], refs[a] = rows[b].Clone(), refs[b].clone()
			}
			for i := range rows {
				if msg := checkRow(rows[i], refs[i]); msg != "" {
					t.Fatalf("step %d (op %d, rows %d/%d, record %v, version %d): row %d: %s", step, op, a, b, rec, ver, i, msg)
				}
			}
			if got, want := rows[a].Project(fields), refs[a].record().Project(fields); !reflect.DeepEqual(got, want) {
				t.Fatalf("step %d: row %d Project(%v) = %v, want %v", step, a, fields, got, want)
			}
		}
	})
}

func TestRowProjectMatchesRecordProject(t *testing.T) {
	r := NewRow()
	r.Apply(kv.Record{"a": kv.SizedValue(1), "b": kv.SizedValue(2), "c": kv.SizedValue(3)}, 10)
	r.Apply(kv.Record{"b": kv.SizedValue(4)}, 30)
	r.Delete(20) // a and c are now dead
	for _, fields := range [][]string{nil, {}, {"a"}, {"b"}, {"b", "zz"}, {"a", "b", "c"}} {
		got, want := r.Project(fields), r.Record().Project(fields)
		if !reflect.DeepEqual(got, want) || got.Bytes() != want.Bytes() {
			t.Errorf("Project(%v) = %v, want %v", fields, got, want)
		}
	}
	dead := NewRow()
	dead.Apply(kv.Record{"a": kv.SizedValue(1)}, 1)
	dead.Delete(2)
	if got := dead.Project(nil); got == nil || len(got) != 0 {
		t.Errorf("dead row Project(nil) = %#v, want an empty non-nil record", got)
	}
}

func TestRowMergeFromDoesNotShareCells(t *testing.T) {
	src := NewRow()
	src.Apply(kv.Record{"a": kv.SizedValue(1), "b": kv.SizedValue(1)}, 1)
	dst := NewRow()
	dst.MergeFrom(src)
	dst.Apply(kv.Record{"a": kv.SizedValue(9)}, 5)
	if c, _ := src.cell("a"); c.Ver != 1 {
		t.Fatalf("merge target aliases its source: source cell a = %+v", c)
	}
}

// mapMergeScans is the coordinator scan merge MergeScans replaced: fold
// every part into a map in part order (first part's row as the base),
// sort the keys, and keep the first limit live rows.
func mapMergeScans(parts [][]ScanRow, limit int) []ScanRow {
	merged := make(map[kv.Key]*Row)
	for _, part := range parts {
		for _, r := range part {
			if have, ok := merged[r.Key]; ok {
				have.MergeFrom(r.Row)
			} else {
				merged[r.Key] = r.Row
			}
		}
	}
	keys := make([]kv.Key, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	out := make([]ScanRow, 0, limit)
	for _, k := range keys {
		if row := merged[k]; row.Live() {
			out = append(out, ScanRow{Key: k, Row: row})
			if len(out) == limit {
				break
			}
		}
	}
	return out
}

// scanRows lists rows as key → record for comparison.
func scanRows(rows []ScanRow) []string {
	out := make([]string, len(rows))
	for i, r := range rows {
		out[i] = fmt.Sprintf("%s=%v@%d", r.Key, r.Row.Record(), r.Row.Version())
	}
	return out
}

func TestMergeScansTieKeepsFirstPart(t *testing.T) {
	row := func(size int, ver kv.Version) *Row {
		r := NewRow()
		r.Apply(kv.Record{"f": kv.SizedValue(size)}, ver)
		return r
	}
	parts := [][]ScanRow{
		{{Key: "a", Row: row(1, 5)}, {Key: "c", Row: row(1, 5)}},
		{{Key: "a", Row: row(2, 5)}, {Key: "b", Row: row(2, 5)}, {Key: "c", Row: row(2, 6)}},
	}
	got := MergeScans(parts, 10)
	want := []string{"a=map[f:{[] 1}]@5", "b=map[f:{[] 2}]@5", "c=map[f:{[] 2}]@6"}
	if !reflect.DeepEqual(scanRows(got), want) {
		t.Fatalf("MergeScans = %v, want %v", scanRows(got), want)
	}
}

// TestMergeScansMatchesMapMerge pins the k-way merge to the map-and-sort
// merge it replaced over random replica parts: overlapping key ranges,
// equal-version conflicts, tombstones that kill a row only once merged,
// and limits below, at and above the number of distinct keys.
func TestMergeScansMatchesMapMerge(t *testing.T) {
	for seed := int64(0); seed < 200; seed++ {
		// Build the same random parts twice: both merges mutate base rows.
		build := func() [][]ScanRow {
			rng := rand.New(rand.NewSource(seed))
			parts := make([][]ScanRow, rng.Intn(6))
			for i := range parts {
				for k := 0; k < 30; k++ {
					if rng.Intn(3) != 0 {
						continue
					}
					r := NewRow()
					r.Apply(kv.Record{"f0": kv.SizedValue(i + 1), "f1": kv.SizedValue(k + 1)}, kv.Version(rng.Intn(4)+1))
					if rng.Intn(4) == 0 {
						r.Apply(kv.Record{"f2": kv.SizedValue(7)}, kv.Version(rng.Intn(4)+1))
					}
					if rng.Intn(8) == 0 {
						r.Delete(kv.Version(rng.Intn(6)))
						if !r.Live() {
							continue // Engine.Scan returns live rows only
						}
					}
					parts[i] = append(parts[i], ScanRow{Key: kv.Key(fmt.Sprintf("k%02d", k)), Row: r})
				}
			}
			return parts
		}
		limit := int(seed%35) + 1
		got, want := MergeScans(build(), limit), mapMergeScans(build(), limit)
		if !reflect.DeepEqual(scanRows(got), scanRows(want)) {
			t.Fatalf("seed %d limit %d:\n got %v\nwant %v", seed, limit, scanRows(got), scanRows(want))
		}
	}
}

// benchRow keeps benchmark results live so the measured calls stay.
var benchRow *Row

// BenchmarkRowMergeFrom measures one two-level reconcile the way
// Engine.Get and Engine.Scan do it: a fresh row merges the newer and then
// the older of two 10-field rows. In same-fields both rows carry
// field0..field9, so the second merge takes the in-place pass;
// differing-fields overlaps the rows by half, so it takes the sorted-union
// path. The first merge, into the empty row, is a copy in both.
func BenchmarkRowMergeFrom(b *testing.B) {
	mk := func(from, to int, ver kv.Version) *Row {
		rec := kv.Record{}
		for i := from; i < to; i++ {
			rec[fmt.Sprintf("field%d", i)] = kv.SizedValue(100)
		}
		r := NewRow()
		r.Apply(rec, ver)
		return r
	}
	for _, bc := range []struct {
		name         string
		newer, older *Row
	}{
		{"same-fields", mk(0, 10, 2), mk(0, 10, 1)},
		{"differing-fields", mk(0, 10, 2), mk(5, 15, 1)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r := NewRow()
				r.MergeFrom(bc.newer)
				r.MergeFrom(bc.older)
				benchRow = r
			}
		})
	}
}

// BenchmarkRowApply measures one Apply: fresh-row is the load path (a
// 10-field insert into a new memtable row), one-field-update is a YCSB
// update of one field of an existing 10-field row.
func BenchmarkRowApply(b *testing.B) {
	full := kv.Record{}
	for i := 0; i < 10; i++ {
		full[fmt.Sprintf("field%d", i)] = kv.SizedValue(100)
	}
	b.Run("fresh-row", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := NewRow()
			r.Apply(full, 1)
			benchRow = r
		}
	})
	b.Run("one-field-update", func(b *testing.B) {
		r := NewRow()
		r.Apply(full, 1)
		upd := kv.Record{"field3": kv.SizedValue(100)}
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r.Apply(upd, kv.Version(i+2))
		}
		benchRow = r
	})
}

// BenchmarkEngineScan measures one 100-row Engine.Scan over a memtable
// and four SSTables holding overlapping versions of 10-field rows. The
// block cache holds every table, so the op is the host cost of the merge,
// not simulated disk time.
func BenchmarkEngineScan(b *testing.B) {
	k := sim.NewKernel(1)
	cfg := DefaultConfig()
	cfg.CacheBytes = 1 << 30
	cfg.CompactMinTables = 100 // keep the tables apart
	cfg.SyncWAL = false
	d := cluster.NewDisk(k, "d", cluster.DefaultDiskConfig())
	e := NewEngine(k, cfg, LocalIO{Disk: d}, NopLog{}, 1)
	rec := kv.Record{}
	for i := 0; i < 10; i++ {
		rec[fmt.Sprintf("field%d", i)] = kv.SizedValue(100)
	}
	upd := kv.Record{"field3": kv.SizedValue(100)}
	const keys = 2000
	k.Spawn("scanner", func(p *sim.Proc) {
		ver := kv.Version(0)
		for level := 0; level < 5; level++ {
			for i := level; i < keys; i += 2 {
				ver++
				w := rec
				if level > 0 {
					w = upd
				}
				e.Apply(p, kv.Key(fmt.Sprintf("user%06d", i)), w, ver)
			}
			if level < 4 {
				e.ForceFlush()
				p.Sleep(1e9)
			}
		}
		if e.Tables() != 4 {
			b.Errorf("tables = %d, want 4", e.Tables())
		}
		rng := rand.New(rand.NewSource(1))
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			start := kv.Key(fmt.Sprintf("user%06d", rng.Intn(keys-200)))
			rows := e.Scan(p, start, 100)
			if len(rows) != 100 {
				b.Fatalf("scan returned %d rows", len(rows))
			}
			benchRow = rows[0].Row
		}
		b.StopTimer()
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
