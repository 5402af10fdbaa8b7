package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const parentOut = `{"perfbench_env":{"workload":"fig1-hbase","trace":true}}
  sim.self_us_per_op 10 us/op
{"correct":true,"attempted":10,"failed":0,"metrics":{"sim.self_us_per_op":{"value":10,"unit":"us/op"},"hbase.new_ms":{"value":2,"unit":"ms"}}}
{"perfbench_env":{"workload":"fig1-hbase","trace":true}}
{"correct":true,"attempted":10,"failed":0,"metrics":{"sim.self_us_per_op":{"value":14,"unit":"us/op"},"hbase.new_ms":{"value":2,"unit":"ms"}}}
{"perfbench_env":{"workload":"fig3-quorum","trace":false}}
{"correct":true,"attempted":10,"failed":0,"metrics":{"host_us_per_op":{"value":500,"unit":"us"}}}
`

const changeOut = `{"perfbench_env":{"workload":"fig1-hbase","trace":true}}
{"correct":true,"attempted":10,"failed":0,"metrics":{"sim.self_us_per_op":{"value":9,"unit":"us/op"},"hbase.new_ms":{"value":2,"unit":"ms"}}}
`

func TestLayerDiff(t *testing.T) {
	dir := t.TempDir()
	parent, change := filepath.Join(dir, "p"), filepath.Join(dir, "c")
	if err := os.WriteFile(parent, []byte(parentOut), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(change, []byte(changeOut), 0o644); err != nil {
		t.Fatal(err)
	}
	var out bytes.Buffer
	if err := run(parent, change, &out); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	// The parent's two runs reduce to their median, 12; the untraced
	// fig3-quorum output is ignored.
	for _, want := range []string{"fig1-hbase (parent runs 2, change runs 1)", "sim.self_us_per_op", "12", "-3", "-25.0%", "+0.0%"} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "fig3-quorum") || strings.Contains(got, "host_us_per_op") {
		t.Errorf("untraced output reported:\n%s", got)
	}
}

func TestLayerDiffRejectsUntracedInput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "p")
	if err := os.WriteFile(path, []byte(`{"perfbench_env":{"workload":"x","trace":false}}`+"\n"+`{"metrics":{"a":{"value":1,"unit":"s"}}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := run(path, path, &bytes.Buffer{}); err == nil {
		t.Fatal("want an error for input without a traced result")
	}
}
