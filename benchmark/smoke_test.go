package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSmoke runs every workload through the whole protocol at -smoke size
// (1 s per workload, 5 000 rows): it checks the benchmark, not the system.
// Every metric of the dictionary must be present, every oracle and
// durability check must pass, the trace must account for its statements,
// and the last line printed for a run must be the object the driver parses.
func TestSmoke(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	cfg := config{seed: 3, runs: 1, seconds: 1, smoke: true, dir: dir, outFile: filepath.Join(dir, "results.json")}
	var out bytes.Buffer
	ok, err := run(cfg, &out)
	if err != nil {
		t.Fatalf("run: %v\n%s", err, out.String())
	}
	if !ok {
		t.Errorf("a check failed:\n%s", out.String())
	}

	rf, err := readResults(cfg.outFile)
	if err != nil {
		t.Fatal(err)
	}
	if len(rf.Runs) != len(workloads) {
		t.Fatalf("results hold %d runs, want one per workload (%d)", len(rf.Runs), len(workloads))
	}
	for i, r := range rf.Runs {
		if r.Workload != workloads[i].name {
			t.Errorf("run %d is %q, want %q", i, r.Workload, workloads[i].name)
		}
		if !r.Correct || r.Failed != 0 || r.Attempted < 10 {
			t.Errorf("%s: correct=%v failed=%d attempted=%d: %v", r.Workload, r.Correct, r.Failed, r.Attempted, r.Errors)
		}
		for _, d := range endToEndDefs {
			m, ok := r.EndToEnd[d.Name]
			if !ok {
				t.Errorf("%s: end-to-end metric %s missing", r.Workload, d.Name)
			} else if d.Gate && (m.Value == nil || *m.Value <= 0) {
				// The contract wants gated metrics on every workload, never 0.
				t.Errorf("%s: gated metric %s = %v, want a positive number on every workload", r.Workload, d.Name, m.Value)
			}
		}
		for _, d := range perLayerDefs {
			if _, ok := r.PerLayer[d.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", r.Workload, d.Name)
			}
		}
		if v := r.PerLayer["trace.violations"].Value; v == nil || *v != 0 {
			t.Errorf("%s: trace.violations = %v, want 0: %v", r.Workload, v, r.Errors)
		}
		// Predictions that hold by construction of the workloads.
		reads := r.Workload == "point-read" || r.Workload == "scan-stream" || r.Workload == "agg-sharded"
		misses := r.PerLayer["store.cache_misses_per_op"].Value
		switch {
		case misses == nil:
			t.Errorf("%s: store.cache_misses_per_op is null", r.Workload)
		case r.Workload == "mixed-cold" && *misses == 0:
			t.Errorf("mixed-cold never missed the page cache: the table fits it")
		case r.Workload != "mixed-cold" && *misses != 0:
			t.Errorf("%s: %v page-cache misses per op on a table that fits the cache", r.Workload, *misses)
		}
		if fs := r.PerLayer["store.wal_fsyncs_per_write"].Value; reads && fs != nil {
			t.Errorf("%s: read-only workload reports %v WAL fsyncs per write", r.Workload, *fs)
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+r.Workload+".json")); err != nil {
			t.Errorf("%s: trace file: %v", r.Workload, err)
		}
	}

	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var last contractLine
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &last); err != nil {
		t.Fatalf("last line of output is not the contract object: %v\n%s", err, lines[len(lines)-1])
	}
	if !last.Correct || last.Attempted < 1 || last.Failed != 0 || len(last.Metrics) != len(endToEndDefs)+len(perLayerDefs) {
		t.Errorf("contract line: correct=%v attempted=%d failed=%d with %d metrics", last.Correct, last.Attempted, last.Failed, len(last.Metrics))
	}
	if entries, _ := filepath.Glob(filepath.Join(dir, "scratch-*")); len(entries) != 0 {
		t.Errorf("run left scratch directories behind: %v", entries)
	}
}

// TestContractLineSelectsByTrace checks which metrics the driver is given
// for --trace 0 and --trace 1, and that a metric the workload does not have
// is a number there, not null.
func TestContractLineSelectsByTrace(t *testing.T) {
	seven := 7.0
	res := &runResult{Correct: true, Attempted: 10,
		EndToEnd: metricSet{"wire_bytes_per_op": {Value: &seven, Unit: "B"}, "commit_p50_us": {Unit: "us"}},
		PerLayer: metricSet{"client.stmt_us": {Value: &seven, Unit: "us"}}}
	gated := 0
	for _, d := range endToEndDefs {
		if d.Gate {
			gated++
		}
	}
	for trace, want := range map[string]int{
		"0": gated,
		"1": len(endToEndDefs) - gated + len(perLayerDefs),
		"":  len(endToEndDefs) + len(perLayerDefs),
	} {
		data, err := contractJSON(res, trace)
		if err != nil {
			t.Fatal(err)
		}
		var line contractLine
		if err := json.Unmarshal(data, &line); err != nil {
			t.Fatal(err)
		}
		if len(line.Metrics) != want {
			t.Errorf("trace %q: %d metrics, want %d", trace, len(line.Metrics), want)
		}
		if m, ok := line.Metrics["wire_bytes_per_op"]; ok != (trace != "1") || (ok && m.Value != 7) {
			t.Errorf("trace %q: wire_bytes_per_op present = %v with value %v", trace, ok, m.Value)
		}
		if m, ok := line.Metrics["commit_p50_us"]; ok != (trace != "0") || m.Value != 0 {
			t.Errorf("trace %q: commit_p50_us present = %v with value %v", trace, ok, m.Value)
		}
	}
}

// TestBenchmarkJSONMatchesDictionary keeps BENCHMARK.json at the repository
// root and the dictionary in metrics.go and workloads.go from drifting apart:
// the driver reads one, -compare and the tables the other.
func TestBenchmarkJSONMatchesDictionary(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type jsonMetric struct {
		Name, Unit, Better string
		Bound              *float64
	}
	var bj struct {
		Command    []string
		Paths      []string
		RunSeconds int `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []jsonMetric `json:"end_to_end"`
		PerLayer   []jsonMetric `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for i, wl := range workloads {
		if bj.Workloads[i].Name != wl.name || bj.Workloads[i].Why != wl.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, wl.name, wl.why)
		}
	}
	var gate, layer []metricDef
	for _, d := range endToEndDefs {
		if d.Gate {
			gate = append(gate, d)
		} else {
			layer = append(layer, d)
		}
	}
	layer = append(layer, perLayerDefs...)
	check := func(section string, got []jsonMetric, want []metricDef, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the dictionary %d", section, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.Name || g.Unit != d.Unit || g.Better != d.Better {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the dictionary %+v", section, i, g, d)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.Bound) {
				t.Errorf("%s[%d] %s: bound differs from the dictionary's %v", section, i, d.Name, d.Bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s[%d] %s: per-layer metrics carry no bound", section, i, d.Name)
			}
		}
	}
	check("end_to_end", bj.EndToEnd, gate, true)
	check("per_layer", bj.PerLayer, layer, false)
	if bj.RunSeconds < 10 {
		t.Errorf("run_seconds = %d: the measured run is never taken below 10 s", bj.RunSeconds)
	}
}
