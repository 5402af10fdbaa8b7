package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

type benchDef struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
}

func readBenchmarkJSON(t *testing.T) (e2e, layer []benchDef) {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []benchDef              `json:"end_to_end"`
		PerLayer  []benchDef              `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range doc.Workloads {
		names = append(names, w.Name)
	}
	if !reflect.DeepEqual(names, workloadNames()) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark has %v", names, workloadNames())
	}
	return doc.EndToEnd, doc.PerLayer
}

func asBenchDefs(ds []metricDef) []benchDef {
	out := make([]benchDef, len(ds))
	for i, d := range ds {
		out[i] = benchDef{d.name, d.unit, d.better}
	}
	return out
}

func TestCatalogueMatchesBENCHMARKJSON(t *testing.T) {
	e2e, layer := readBenchmarkJSON(t)
	if want := asBenchDefs(endToEnd); !reflect.DeepEqual(e2e, want) {
		t.Errorf("end_to_end:\n got %v\nwant %v", e2e, want)
	}
	if want := asBenchDefs(perLayer()); !reflect.DeepEqual(layer, want) {
		t.Errorf("per_layer:\n got %v\nwant %v", layer, want)
	}
	seen := map[string]bool{}
	for _, d := range append(e2e, layer...) {
		if !nameRE.MatchString(d.Name) || !unitRE.MatchString(d.Unit) {
			t.Errorf("malformed metric %q unit %q", d.Name, d.Unit)
		}
		if seen[d.Name] {
			t.Errorf("metric %q listed twice", d.Name)
		}
		seen[d.Name] = true
	}
}

// TestTinyWorkloadsEmitEveryMetric runs each workload at the self-test
// scale, untraced and traced, and checks the result line carries exactly
// the catalogued metrics, each with its unit.
func TestTinyWorkloadsEmitEveryMetric(t *testing.T) {
	for _, w := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(w.name+"/trace"+trace, func(t *testing.T) {
				var stdout, stderr bytes.Buffer
				code := run([]string{"--workload", w.name, "--seed", "3", "--seconds", "0.01",
					"--trace", trace, "--tiny", "--trace-dir", t.TempDir()}, &stdout, &stderr)
				if code != 0 {
					t.Fatalf("exit %d\n%s", code, stderr.String())
				}
				lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
				var res result
				if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("result %+v", res)
				}
				defs := endToEnd
				if trace == "1" {
					defs = perLayer()
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("%d metrics emitted, %d catalogued", len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					m, ok := res.Metrics[d.name]
					if !ok {
						t.Errorf("metric %s missing", d.name)
						continue
					}
					if m.Unit != d.unit || !nameRE.MatchString(d.name) {
						t.Errorf("metric %s emitted with unit %q, want %q", d.name, m.Unit, d.unit)
					}
				}
			})
		}
	}
}

func TestBadArgumentsFail(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "nope"},
		{"--workload", "fig1-hbase", "--trace", "2"},
		{"--workload", "fig1-hbase", "--seconds", "0"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q", args, code, stdout.String())
		}
	}
}

func TestFramePackage(t *testing.T) {
	for fn, want := range map[string]string{
		"cloudbench/internal/sim.(*Kernel).RunUntil":                    "cloudbench/internal/sim",
		"cloudbench/internal/sim.(*Future[...]).Await":                  "cloudbench/internal/sim",
		"cloudbench/internal/ycsb.Run.func1":                            "cloudbench/internal/ycsb",
		"runtime.mallocgc":                                              "runtime",
		"internal/runtime/maps.(*Map).getWithKeySmall":                  "internal/runtime/maps",
		"main.fig3Round.func2":                                          "main",
		"sort.insertionSortCmpFunc[go.shape.struct { cloudbench/x.y }]": "sort",
	} {
		if got := framePackage(fn); got != want {
			t.Errorf("framePackage(%q) = %q, want %q", fn, got, want)
		}
	}
}

func TestClassify(t *testing.T) {
	for _, c := range []struct {
		stack []string
		want  string
	}{
		// Map and hash frames are charged to the calling layer.
		{[]string{"runtime.memhash", "internal/runtime/maps.(*Map).getWithKeySmall", "cloudbench/internal/storage.(*Row).MergeFrom"}, "storage"},
		{[]string{"runtime.mallocgc", "runtime.newobject", "cloudbench/internal/kv.Record.Clone"}, bucketMalloc},
		{[]string{"runtime.memmove", "runtime.growslice", "cloudbench/internal/sim.(*Kernel).Spawn"}, bucketMalloc},
		// Mark assist inside an allocation is GC work.
		{[]string{"runtime.scanobject", "runtime.gcDrainN", "runtime.gcAssistAlloc", "runtime.mallocgc", "cloudbench/internal/storage.NewRow"}, bucketGC},
		{[]string{"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker"}, bucketGC},
		{[]string{"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm", "runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall"}, bucketSwitch},
		{[]string{"runtime.chansend", "runtime.chansend1", "cloudbench/internal/sim.(*Kernel).dispatch"}, bucketSwitch},
		{[]string{"sort.pdqsort", "sort.Sort", "cloudbench/internal/cassandra.sortKeys"}, "cassandra"},
		{[]string{"cloudbench/internal/trace.(*Tracer).StartOp"}, bucketOther},
		{[]string{"main.runPhase"}, bucketOther},
		{[]string{"runtime/pprof.profileWriter"}, bucketOther},
		{nil, bucketOther},
	} {
		if got := classify(c.stack); got != c.want {
			t.Errorf("classify(%v) = %q, want %q", c.stack, got, c.want)
		}
	}
}

//go:noinline
func burn(d time.Duration) int {
	n := 0
	for end := time.Now().Add(d); time.Now().Before(end); n++ {
	}
	return n
}

func TestParseCPUProfile(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Fatal(err)
	}
	burn(300 * time.Millisecond)
	pprof.StopCPUProfile()
	samples, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	found := false
	for _, s := range samples {
		total += s.ns
		for _, f := range s.stack {
			if strings.HasSuffix(f, ".burn") {
				found = true
			}
		}
	}
	if total <= 0 || !found {
		t.Fatalf("%d samples, %d ns, burn frame found %t", len(samples), total, found)
	}
}
