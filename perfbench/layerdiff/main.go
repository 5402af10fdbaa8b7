// Command layerdiff compares two sets of traced perfbench outputs, a
// parent and a change, and prints every per-layer metric per workload
// with its base value and the change's delta — the evidence of where a
// saving appears.
//
//	bash perfbench/run.sh --workload fig1-hbase --seed 7 --trace 1 >> parent.txt
//	... same on the change >> change.txt
//	(cd perfbench && go run ./layerdiff ../parent.txt ../change.txt)
//
// Each input holds the standard output of one or more traced invocations,
// concatenated. Several invocations of one workload are reduced to the
// median of each metric.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"sort"
)

func main() {
	if len(os.Args) != 3 {
		fmt.Fprintln(os.Stderr, "usage: layerdiff PARENT CHANGE")
		os.Exit(2)
	}
	if err := run(os.Args[1], os.Args[2], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "layerdiff:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is either the environment line or the result line of an output.
type line struct {
	Env *struct {
		Workload string `json:"workload"`
		Trace    bool   `json:"trace"`
	} `json:"perfbench_env"`
	Metrics map[string]metric `json:"metrics"`
}

// runs maps workload → metric → the values of every invocation.
type runs map[string]map[string][]metric

// parse collects the traced results of one input, each attributed to the
// workload named by the environment line before it.
func parse(r io.Reader) (runs, error) {
	out := runs{}
	workload := ""
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var l line
		if json.Unmarshal(sc.Bytes(), &l) != nil {
			continue
		}
		switch {
		case l.Env != nil:
			workload = ""
			if l.Env.Trace {
				workload = l.Env.Workload
			}
		case l.Metrics != nil && workload != "":
			if out[workload] == nil {
				out[workload] = map[string][]metric{}
			}
			for name, m := range l.Metrics {
				out[workload][name] = append(out[workload][name], m)
			}
			workload = ""
		}
	}
	return out, sc.Err()
}

func parseFile(path string) (runs, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs, err := parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(rs) == 0 {
		return nil, fmt.Errorf("%s: no traced perfbench result", path)
	}
	return rs, nil
}

func median(ms []metric) float64 {
	xs := make([]float64, len(ms))
	for i, m := range ms {
		xs[i] = m.Value
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func run(parentPath, changePath string, w io.Writer) error {
	parent, err := parseFile(parentPath)
	if err != nil {
		return err
	}
	change, err := parseFile(changePath)
	if err != nil {
		return err
	}
	var workloads []string
	for wl := range parent {
		if change[wl] != nil {
			workloads = append(workloads, wl)
		}
	}
	if len(workloads) == 0 {
		return fmt.Errorf("the two inputs share no traced workload")
	}
	sort.Strings(workloads)
	for _, wl := range workloads {
		p, c := parent[wl], change[wl]
		fmt.Fprintf(w, "%s (parent runs %d, change runs %d)\n", wl, runsOf(p), runsOf(c))
		fmt.Fprintf(w, "  %-36s %14s %14s %10s  %s\n", "metric", "base", "delta", "delta%", "unit")
		var names []string
		for name := range p {
			names = append(names, name)
		}
		sort.Strings(names)
		for _, name := range names {
			if c[name] == nil {
				fmt.Fprintf(w, "  %-36s %14.6g %14s %10s  %s\n", name, median(p[name]), "missing", "", p[name][0].Unit)
				continue
			}
			base := median(p[name])
			delta := median(c[name]) - base
			pct := "—"
			if base != 0 {
				pct = fmt.Sprintf("%+.1f%%", 100*delta/math.Abs(base))
			}
			fmt.Fprintf(w, "  %-36s %14.6g %+14.6g %10s  %s\n", name, base, delta, pct, p[name][0].Unit)
		}
	}
	return nil
}

func runsOf(m map[string][]metric) int {
	for _, v := range m {
		return len(v)
	}
	return 0
}
