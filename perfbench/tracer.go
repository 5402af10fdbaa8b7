package main

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/pprof"
)

// heapSampleRate is the allocation-sampling interval (bytes) while a
// traced run phase executes; it is the runtime's default rate.
const heapSampleRate = 512 << 10

// tracer profiles traced run phases from outside the program: a CPU
// profile of each phase attributed to layers, and allocation sampling
// switched on only inside those phases so the heap profile covers them
// alone.
type tracer struct {
	buf   bytes.Buffer
	cpuNs map[string]int64 // bucket → CPU ns
	total int64            // CPU ns of every sample, attributed or not
}

func newTracer() *tracer { return &tracer{cpuNs: map[string]int64{}} }

func (t *tracer) start() error {
	t.buf.Reset()
	runtime.MemProfileRate = heapSampleRate
	if err := pprof.StartCPUProfile(&t.buf); err != nil {
		runtime.MemProfileRate = 0
		return fmt.Errorf("cpu profile: %w", err)
	}
	return nil
}

func (t *tracer) stop() error {
	pprof.StopCPUProfile()
	runtime.MemProfileRate = 0
	samples, err := parseCPUProfile(t.buf.Bytes())
	if err != nil {
		return err
	}
	for _, s := range samples {
		t.total += s.ns
		t.cpuNs[classify(s.stack)] += s.ns
	}
	return nil
}

// accounted is the CPU time landed in some bucket; attribution is
// complete when it equals total.
func (t *tracer) accounted() int64 {
	var n int64
	for _, b := range buckets {
		n += t.cpuNs[b]
	}
	return n
}
