// Command perfbench is the repository's benchmark: host cost per simulated
// client operation on three cells built directly from the layer packages,
// with per-layer attribution from a separate traced run. See README.md.
//
//	bash perfbench/run.sh --workload fig3-quorum --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. A violated correctness or
// determinism check prints correct=false and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"
)

func main() {
	// Allocation sampling stays off except inside traced run phases, so
	// untraced rounds pay nothing for it.
	runtime.MemProfileRate = 0
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options are the command-line settings of one invocation.
type options struct {
	workload workload
	seed     int64
	seconds  float64
	trace    bool
	tiny     bool
	traceDir string
}

func parseArgs(args []string, stderr io.Writer) (options, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed of the simulated cell's random streams")
	seconds := fs.Float64("seconds", 10, "host seconds to keep running rounds for")
	traceN := fs.Int("trace", 0, "1: report per-layer metrics from a traced run instead of end-to-end metrics")
	tiny := fs.Bool("tiny", false, "self-test scale: tiny cells, same metrics")
	traceDir := fs.String("trace-dir", filepath.Join(".bench_build", "perfbench-trace"), "where a traced run writes its spans and CPU attribution")
	if err := fs.Parse(args); err != nil {
		return options{}, err
	}
	o := options{seed: *seed, seconds: *seconds, trace: *traceN == 1, tiny: *tiny, traceDir: *traceDir}
	var ok bool
	if o.workload, ok = lookupWorkload(*name); !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", *name, strings.Join(workloadNames(), ", "))
	}
	if *traceN != 0 && *traceN != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", *traceN)
	}
	if !(o.seconds > 0) {
		return o, fmt.Errorf("--seconds must be positive, got %v", o.seconds)
	}
	return o, nil
}

func workloadNames() []string {
	var out []string
	for _, w := range workloads {
		out = append(out, w.name)
	}
	return out
}

// result is the benchmark's last line of output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env records the host a result was measured on.
type env struct {
	Workload   string  `json:"workload"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
	Tiny       bool    `json:"tiny,omitempty"`
	Rounds     int     `json:"rounds"`
	GoMaxProcs int     `json:"gomaxprocs"`
	NumCPU     int     `json:"num_cpu"`
	GoVersion  string  `json:"go_version"`
	GitSHA     string  `json:"git_sha"`
}

// span is one host-time interval the benchmark records around its own
// call into a layer, in seconds since the process started.
type span struct {
	Round  int     `json:"round"`
	Traced bool    `json:"traced"`
	Name   string  `json:"name"`
	Parent string  `json:"parent"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

func run(args []string, stdout, stderr io.Writer) int {
	o, err := parseArgs(args, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 2
	}
	res, e, spans, tr, err := measure(o, stderr)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", o.workload.name, err)
		return 1
	}
	if o.trace {
		if err := writeTrace(o, e, spans, tr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
	}
	envLine, _ := json.Marshal(map[string]env{"perfbench_env": e}) // plain fields: cannot fail
	fmt.Fprintln(stdout, string(envLine))
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Fprintf(stdout, "  %-36s %14.6g %s\n", n, m.Value, m.Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// measure runs rounds of the workload until the time budget is spent and
// reduces them to the invocation's metrics. Untraced, it runs at least
// three rounds; traced, it alternates untraced and traced rounds, at least
// two of each, so both see the same host conditions.
func measure(o options, stderr io.Writer) (result, env, []span, *tracer, error) {
	sz := o.workload.full
	if o.tiny {
		sz = o.workload.tiny
	}
	e := env{
		Workload: o.workload.name, Seed: o.seed, Seconds: o.seconds, Trace: o.trace, Tiny: o.tiny,
		GoMaxProcs: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		GoVersion: runtime.Version(), GitSHA: gitSHA(),
	}
	var tr *tracer
	minRounds := 3
	if o.trace {
		tr = newTracer()
		minRounds = 4
	}
	budget := time.Duration(o.seconds * float64(time.Second))
	t0 := time.Now()
	var plain, traced []*round
	var spans []span
	var violations []string
	for i := 0; ; i++ {
		rt := (*tracer)(nil)
		if o.trace && i%2 == 1 {
			rt = tr
		}
		// Start every round from a collected heap, so no round pays for
		// the garbage of the one before it.
		runtime.GC()
		start := time.Since(processStart).Seconds()
		r, err := o.workload.round(o.seed, sz, rt)
		if err != nil {
			return result{}, e, nil, nil, fmt.Errorf("round %d: %w", i, err)
		}
		r.spans = append(r.spans, span{Name: "round", Start: start, End: time.Since(processStart).Seconds()})
		for _, s := range r.spans {
			s.Round, s.Traced = i, rt != nil
			spans = append(spans, s)
		}
		fmt.Fprintf(stderr, "perfbench: round %d traced=%t setup %.3fs run %.3fs ops %d host %.2fus/op\n",
			i, rt != nil, r.setupS(), r.runS, r.ops, usPerOp(r))
		for _, v := range r.violations {
			violations = append(violations, fmt.Sprintf("round %d: %s", i, v))
		}
		if rt != nil {
			traced = append(traced, r)
		} else {
			plain = append(plain, r)
		}
		if i+1 >= minRounds && (!o.trace || rt != nil) && time.Since(t0) >= budget {
			break
		}
	}
	all := append(append([]*round{}, plain...), traced...)
	e.Rounds = len(all)

	// Determinism: every round ran the same cell at the same seed, so the
	// model's outputs must agree exactly — across rounds, and between
	// traced and untraced rounds.
	for i, r := range all[1:] {
		if !reflect.DeepEqual(r.model, all[0].model) {
			violations = append(violations, fmt.Sprintf("model outputs differ between rounds 0 and %d: %s", i+1, modelDiff(all[0].model, r.model)))
		}
	}

	res := result{Metrics: map[string]metric{}}
	for _, r := range all {
		res.Attempted += r.ops
		res.Failed += r.failed
	}
	if o.trace {
		violations = append(violations, layerMetrics(res.Metrics, plain, traced, tr)...)
	} else {
		endToEndMetrics(res.Metrics, plain, res.Attempted, res.Failed)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			violations = append(violations, fmt.Sprintf("metric %s is %v", name, m.Value))
			res.Metrics[name] = metric{0, m.Unit}
		}
	}
	for _, v := range violations {
		fmt.Fprintln(stderr, "perfbench: check failed:", v)
	}
	res.Correct = len(violations) == 0
	return res, e, spans, tr, nil
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func medianOf(rs []*round, f func(*round) float64) float64 {
	xs := make([]float64, len(rs))
	for i, r := range rs {
		xs[i] = f(r)
	}
	return median(xs)
}

func usPerOp(r *round) float64 { return r.runS * 1e6 / float64(r.ops) }

func endToEndMetrics(m map[string]metric, rs []*round, attempted, failed int64) {
	m["host_us_per_op"] = metric{medianOf(rs, usPerOp), "us"}
	m["setup_s"] = metric{medianOf(rs, (*round).setupS), "s"}
	m["peak_rss_mb"] = metric{peakRSSMB(), "MB"}
	m["ok_op_frac"] = metric{float64(attempted-failed) / float64(attempted), "frac"}
}

// layerMetrics fills the per-layer metrics of a traced invocation: host
// self time and allocation per layer from the traced rounds, the spans,
// the runtime's allocation totals, and the model outputs.
func layerMetrics(m map[string]metric, plain, traced []*round, tr *tracer) []string {
	var violations []string
	var ops, failed int64
	var mem memDelta
	for _, r := range traced {
		ops += r.ops
		failed += r.failed
		mem.mallocs += r.mem.mallocs
		mem.bytes += r.mem.bytes
		mem.gcs += r.mem.gcs
	}
	f := float64(ops)
	if tr.total == 0 {
		violations = append(violations, "the CPU profile of the traced rounds holds no samples")
	}
	if acc := tr.accounted(); acc != tr.total {
		violations = append(violations, fmt.Sprintf("attribution placed %d of %d profiled CPU ns", acc, tr.total))
	}
	for _, b := range buckets {
		m[selfMetric(b)] = metric{float64(tr.cpuNs[b]) / 1e3 / f, "us/op"}
	}
	m["bench.trace_overhead_frac"] = metric{medianOf(traced, usPerOp)/medianOf(plain, usPerOp) - 1, "frac"}

	heap, err := heapByLayer()
	if err != nil {
		violations = append(violations, err.Error())
	}
	for _, l := range allocLayers {
		m[l+".alloc_b_per_op"] = metric{heap[l] / f, "B/op"}
	}
	m["runtime.allocs_per_op"] = metric{float64(mem.mallocs) / f, "1/op"}
	m["runtime.alloc_b_per_op"] = metric{float64(mem.bytes) / f, "B/op"}
	m["runtime.gc_cycles"] = metric{float64(mem.gcs) / float64(len(traced)), "count"}

	m["cassandra.new_ms"] = metric{0, "ms"}
	m["hbase.new_ms"] = metric{0, "ms"}
	m[traced[0].backend+".new_ms"] = metric{medianOf(traced, func(r *round) float64 { return r.newS * 1e3 }), "ms"}
	m["ycsb.load_s"] = metric{medianOf(traced, func(r *round) float64 { return r.loadS }), "s"}
	m["sim.run_s"] = metric{medianOf(traced, func(r *round) float64 { return r.runS }), "s"}
	m["ycsb.failed_op_frac"] = metric{float64(failed) / f, "frac"}
	for _, d := range modelMetrics {
		v, ok := traced[0].model[d.name]
		if !ok {
			violations = append(violations, "the cell reports no model metric "+d.name)
		}
		m[d.name] = metric{v, d.unit}
	}
	return violations
}

// modelDiff names the model outputs that differ between two rounds.
func modelDiff(a, b map[string]float64) string {
	var diffs []string
	for k, v := range a {
		if w, ok := b[k]; !ok || w != v {
			diffs = append(diffs, fmt.Sprintf("%s %v→%v", k, v, b[k]))
		}
	}
	sort.Strings(diffs)
	return strings.Join(diffs, ", ")
}

// peakRSSMB is the process's peak resident set in MB (Linux reports
// ru_maxrss in KiB).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// gitSHA names the commit measured: $BENCH_GIT_SHA when set, otherwise
// the HEAD of the git repository rooted at the working directory,
// otherwise "unknown". A checkout without its own .git is never looked up
// in an enclosing repository.
func gitSHA() string {
	if sha := os.Getenv("BENCH_GIT_SHA"); sha != "" {
		return sha
	}
	if _, err := os.Stat(".git"); err != nil {
		return "unknown"
	}
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// writeTrace keeps the traced invocation's raw evidence next to the build:
// every span and the CPU nanoseconds of each attribution bucket.
func writeTrace(o options, e env, spans []span, tr *tracer) error {
	if err := os.MkdirAll(o.traceDir, 0o755); err != nil {
		return fmt.Errorf("trace dir: %w", err)
	}
	doc := struct {
		Env      env              `json:"env"`
		Spans    []span           `json:"spans"`
		CPUNs    map[string]int64 `json:"cpu_ns_by_bucket"`
		CPUTotal int64            `json:"cpu_ns_total"`
	}{e, spans, tr.cpuNs, tr.total}
	b, err := json.MarshalIndent(doc, "", " ")
	if err != nil {
		return err
	}
	path := filepath.Join(o.traceDir, fmt.Sprintf("%s-seed%d.json", o.workload.name, o.seed))
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return fmt.Errorf("write trace: %w", err)
	}
	return nil
}
