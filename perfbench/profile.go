package main

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"strings"
)

// Host-time attribution. Every CPU-profile sample lands in exactly one
// bucket, decided by its stack (innermost frame first):
//
//  1. any garbage-collector frame anywhere on the stack → runtime.gc
//     (background mark, mark assist, sweeping, write-barrier flushes);
//  2. otherwise walk outward from the leaf; the first frame that decides
//     wins:
//     - a cloudbench frame → its layer (the internal/ package name; other
//     cloudbench packages and the benchmark's own code → other);
//     - an allocator frame → runtime.malloc;
//     - a channel, park or scheduler frame → runtime.switch;
//     every other frame (map and hash routines, memmove, sort, fmt, …) is
//     transparent, so its time is charged to the calling layer;
//  3. a stack with no deciding frame → other.
//
// Heap-profile bytes use rule 2 without the runtime buckets: each sampled
// allocation is charged to the innermost cloudbench frame's layer.

// layers are the internal/ packages whose self time is reported.
var layers = []string{
	"sim", "cluster", "storage", "kv", "cassandra", "hbase", "hdfs",
	"ycsb", "consistency", "stats",
}

// Runtime buckets and the catch-all.
const (
	bucketSwitch = "runtime.switch"
	bucketGC     = "runtime.gc"
	bucketMalloc = "runtime.malloc"
	bucketOther  = "other"
)

// buckets lists every attribution target, layers first.
var buckets = append(append([]string{}, layers...), bucketSwitch, bucketGC, bucketMalloc, bucketOther)

var gcFrames = []string{
	"runtime.gc", "runtime._GC", "runtime.markroot", "runtime.scanobject",
	"runtime.scanblock", "runtime.scanstack", "runtime.scanframeworker",
	"runtime.greyobject", "runtime.sweepone", "runtime.bgsweep",
	"runtime.bgscavenge", "runtime.(*gcWork)", "runtime.(*gcControllerState)",
	"runtime.(*mspan).sweep", "runtime.(*sweepLocked)", "runtime.(*mheap).reclaim",
	"runtime.wbBufFlush", "runtime.(*wbBuf)", "runtime.(*scavengerState)",
}

var mallocFrames = []string{
	"runtime.mallocgc", "runtime.newobject", "runtime.newarray",
	"runtime.growslice", "runtime.makeslice", "runtime.makemap",
	"runtime.rawstring", "runtime.rawbyteslice", "runtime.rawruneslice",
	"runtime.(*mcache)", "runtime.(*mcentral)", "runtime.(*mheap)",
	"runtime.profilealloc", "runtime.mProf_Malloc", "runtime.largeAlloc",
}

var switchFrames = []string{
	"runtime.chan", "runtime.selectgo", "runtime.gopark", "runtime.goready",
	"runtime.ready", "runtime.park_m", "runtime.schedule", "runtime.findRunnable",
	"runtime.mcall", "runtime.goexit", "runtime.stopm", "runtime.startm",
	"runtime.wakep", "runtime.notesleep", "runtime.notewakeup", "runtime.futex",
	"runtime.runq", "runtime.stealWork", "runtime.lock", "runtime.unlock",
	"runtime.semacquire", "runtime.semrelease", "runtime.usleep",
	"runtime.osyield", "runtime.gosched", "runtime.Gosched", "runtime.goschedImpl",
	"runtime.newproc", "runtime.execute", "runtime.gogo", "runtime.send",
	"runtime.recv", "runtime.acquireSudog", "runtime.releaseSudog",
	"runtime.mPark", "runtime.handoffp", "runtime.gfget", "runtime.gfput",
	"runtime.casgstatus", "runtime.resetspinning", "runtime.checkTimers",
	"runtime.netpoll", "runtime.(*waitq)", "runtime.mstart", "runtime.sysmon",
	"runtime._System", "sync.runtime_", "internal/sync.runtime_",
}

func hasAnyPrefix(s string, prefixes []string) bool {
	for _, p := range prefixes {
		if strings.HasPrefix(s, p) {
			return true
		}
	}
	return false
}

// framePackage returns the import path of a symbol name such as
// "cloudbench/internal/sim.(*Kernel).Run" or "runtime.mallocgc".
func framePackage(fn string) string {
	if i := strings.IndexAny(fn, "(["); i >= 0 {
		fn = fn[:i]
	}
	slash := strings.LastIndex(fn, "/")
	dot := strings.Index(fn[slash+1:], ".")
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// ownerLayer reports the bucket of a frame that belongs to this module:
// a listed internal/ package, or other for the rest of cloudbench and the
// benchmark's own main package.
func ownerLayer(fn string) (string, bool) {
	pkg := framePackage(fn)
	if pkg == "main" {
		return bucketOther, true
	}
	rest, ok := strings.CutPrefix(pkg, "cloudbench/")
	if !ok {
		return "", false
	}
	if name, ok := strings.CutPrefix(rest, "internal/"); ok {
		for _, l := range layers {
			if l == name {
				return l, true
			}
		}
	}
	return bucketOther, true
}

// classify returns the bucket of one CPU sample's stack, innermost frame
// first.
func classify(stack []string) string {
	for _, f := range stack {
		if hasAnyPrefix(f, gcFrames) {
			return bucketGC
		}
	}
	for _, f := range stack {
		if l, ok := ownerLayer(f); ok {
			return l
		}
		if hasAnyPrefix(f, mallocFrames) {
			return bucketMalloc
		}
		if hasAnyPrefix(f, switchFrames) {
			return bucketSwitch
		}
	}
	return bucketOther
}

// allocOwner returns the layer charged for an allocation site's stack.
func allocOwner(stack []string) string {
	for _, f := range stack {
		if l, ok := ownerLayer(f); ok {
			return l
		}
	}
	return bucketOther
}

// cpuSample is one decoded profile sample: its CPU nanoseconds and its
// stack as symbol names, innermost first (inlined frames expanded).
type cpuSample struct {
	ns    int64
	stack []string
}

// parseCPUProfile decodes the gzipped protobuf a runtime/pprof CPU profile
// is written as — only the fields attribution needs: samples, locations,
// functions and the string table.
func parseCPUProfile(data []byte) ([]cpuSample, error) {
	zr, err := gzip.NewReader(bytes.NewReader(data))
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	raw, err := io.ReadAll(zr)
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	type rawSample struct {
		locs   []uint64
		values []int64
	}
	var (
		samples   []rawSample
		locFuncs  = map[uint64][]uint64{} // location id → function ids, innermost first
		funcNames = map[uint64]int64{}    // function id → string index
		strs      []string
	)
	err = eachField(raw, func(field int, v uint64, b []byte) error {
		switch field {
		case 2: // Sample
			var s rawSample
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					return appendPacked(&s.locs, v, b)
				case 2:
					var u []uint64
					if err := appendPacked(&u, v, b); err != nil {
						return err
					}
					for _, x := range u {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // Location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // Line
					return eachField(b, func(f int, v uint64, _ []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locFuncs[id] = fns
			return err
		case 5: // Function
			var id uint64
			var name int64
			err := eachField(b, func(f int, v uint64, _ []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcNames[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("cpu profile: %w", err)
	}
	out := make([]cpuSample, 0, len(samples))
	for _, s := range samples {
		// CPU profiles carry [sample count, cpu nanoseconds].
		if len(s.values) < 2 {
			return nil, errors.New("cpu profile: sample without a cpu/nanoseconds value")
		}
		cs := cpuSample{ns: s.values[1]}
		for _, l := range s.locs {
			for _, f := range locFuncs[l] {
				if i := funcNames[f]; i >= 0 && int(i) < len(strs) {
					cs.stack = append(cs.stack, strs[i])
				}
			}
		}
		out = append(out, cs)
	}
	return out, nil
}

// eachField walks one protobuf message, calling fn with each field's
// number and either its varint value (v) or its length-delimited bytes (b).
func eachField(msg []byte, fn func(field int, v uint64, b []byte) error) error {
	for len(msg) > 0 {
		key, n := uvarint(msg)
		if n <= 0 {
			return errors.New("bad field key")
		}
		msg = msg[n:]
		field, wire := int(key>>3), key&7
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = uvarint(msg)
			if n <= 0 {
				return errors.New("bad varint")
			}
			msg = msg[n:]
		case 1:
			if len(msg) < 8 {
				return errors.New("short fixed64")
			}
			msg = msg[8:]
			continue
		case 2:
			l, n := uvarint(msg)
			if n <= 0 || uint64(len(msg)-n) < l {
				return errors.New("bad length")
			}
			b = msg[n : n+int(l)]
			msg = msg[n+int(l):]
		case 5:
			if len(msg) < 4 {
				return errors.New("short fixed32")
			}
			msg = msg[4:]
			continue
		default:
			return fmt.Errorf("unsupported wire type %d", wire)
		}
		if err := fn(field, v, b); err != nil {
			return err
		}
	}
	return nil
}

// appendPacked appends a repeated varint field that arrived either as one
// value or packed into a length-delimited run.
func appendPacked(dst *[]uint64, v uint64, b []byte) error {
	if b == nil {
		*dst = append(*dst, v)
		return nil
	}
	for len(b) > 0 {
		x, n := uvarint(b)
		if n <= 0 {
			return errors.New("bad packed varint")
		}
		*dst = append(*dst, x)
		b = b[n:]
	}
	return nil
}

func uvarint(b []byte) (uint64, int) {
	var x uint64
	for i := 0; i < len(b) && i < 10; i++ {
		x |= uint64(b[i]&0x7f) << (7 * i)
		if b[i] < 0x80 {
			return x, i + 1
		}
	}
	return 0, 0
}

// heapByLayer reads the runtime's sampled allocation profile and returns
// the estimated bytes allocated per bucket since the process started,
// unsampled the way pprof does it. Sampling runs only inside traced run
// phases, always at heapSampleRate.
func heapByLayer() (map[string]float64, error) {
	// Allocation records are published at the end of a GC cycle; two
	// cycles flush everything sampled so far.
	runtime.GC()
	runtime.GC()
	n, _ := runtime.MemProfile(nil, true)
	recs := make([]runtime.MemProfileRecord, n+64)
	n, ok := runtime.MemProfile(recs, true)
	if !ok {
		return nil, errors.New("heap profile grew while being read")
	}
	out := map[string]float64{}
	for _, r := range recs[:n] {
		if r.AllocObjects == 0 || r.AllocBytes == 0 {
			continue
		}
		bytes := float64(r.AllocBytes)
		avg := bytes / float64(r.AllocObjects)
		bytes /= 1 - math.Exp(-avg/heapSampleRate)
		var stack []string
		frames := runtime.CallersFrames(r.Stack())
		for {
			f, more := frames.Next()
			stack = append(stack, f.Function)
			if !more {
				break
			}
		}
		out[allocOwner(stack)] += bytes
	}
	return out, nil
}
