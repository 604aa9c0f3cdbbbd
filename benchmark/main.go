// Command benchmark is the repository's benchmark: five named workloads run
// closed-loop against a real loopback fleet (durable stores, transport
// servers on 127.0.0.1, one multiplexed connection per provider, one
// client), reporting end-to-end metrics from an unwrapped run and per-layer
// metrics from a second run through timing wrappers. See README.md for the
// metric dictionary and BENCHMARK.json at the repository root for the
// contract the driver checks.
//
//	go run -C benchmark .                      # all workloads, both tables
//	go run -C benchmark . -workload point-read -seed 7 -seconds 10 -trace 0
//	go run -C benchmark . -compare results/a.json results/b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"text/tabwriter"
	"time"
)

// outDir, relative to the working directory (the benchmark's own directory
// under `go run -C benchmark .` and under `go test`), holds everything a run
// leaves behind: traces, profiles, the default results file and, while a
// run lasts, the providers' data directories.
const outDir = "out"

// config is one invocation.
type config struct {
	workloads  []string
	seed       int64
	runs       int
	seconds    float64
	trace      string // "" = both tables, "0" = end to end only, "1" = per layer only
	smoke      bool
	outFile    string
	dir        string // where traces and scratch directories go
	cpuProfile string
	memProfile string
}

type nameList []string

func (l *nameList) String() string     { return strings.Join(*l, ",") }
func (l *nameList) Set(v string) error { *l = append(*l, v); return nil }

func main() {
	var cfg config
	var compare bool
	flag.Var((*nameList)(&cfg.workloads), "workload", "workload to run (repeatable; default all)")
	flag.Int64Var(&cfg.seed, "seed", 1, "seed the fixture and every statement are generated from")
	flag.IntVar(&cfg.runs, "runs", 1, "runs per workload, with seeds seed, seed+1, …; -compare needs several to know the spread")
	flag.Float64Var(&cfg.seconds, "seconds", 15, "length of the measured run in seconds")
	flag.StringVar(&cfg.trace, "trace", "", "0 = gated end-to-end metrics only, 1 = every other metric (-seconds split over the measured and the traced run), unset = all")
	flag.BoolVar(&cfg.smoke, "smoke", false, "1 s per workload on a 5 000-row table: checks the benchmark itself, not the system")
	flag.StringVar(&cfg.outFile, "out", filepath.Join(outDir, "results.json"), "results file to write")
	flag.StringVar(&cfg.cpuProfile, "cpuprofile", "", "write a CPU profile of the whole invocation to this file")
	flag.StringVar(&cfg.memProfile, "memprofile", "", "write a heap profile at exit to this file")
	flag.BoolVar(&compare, "compare", false, "compare two results files: -compare old.json new.json; exits 1 if any metric regressed")
	flag.Parse()

	if compare {
		if flag.NArg() != 2 {
			fatal(errors.New("-compare takes two results files: old.json new.json"))
		}
		regressed, err := compareFiles(flag.Arg(0), flag.Arg(1), os.Stdout)
		if err != nil {
			fatal(err)
		}
		if regressed {
			os.Exit(1)
		}
		return
	}
	if flag.NArg() != 0 {
		fatal(fmt.Errorf("unexpected arguments %q", flag.Args()))
	}
	cfg.dir = outDir
	ok, err := run(cfg, os.Stdout)
	if err != nil {
		fatal(err)
	}
	if !ok {
		os.Exit(1)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// planFor turns the flags into phase lengths.
func planFor(cfg config) (plan, error) {
	if cfg.seconds <= 0 {
		return plan{}, fmt.Errorf("-seconds %v: want a positive length", cfg.seconds)
	}
	secs := func(f float64) time.Duration { return time.Duration(f * float64(time.Second)) }
	switch {
	case cfg.smoke:
		return plan{rows: smokeRows, setups: 1, measure: secs(0.4), traced: secs(0.3), probeFor: 2 * time.Millisecond}, nil
	case cfg.trace == "":
		return plan{rows: fullRows, setups: 3, measure: secs(cfg.seconds), traced: secs(3.5), probeFor: 40 * time.Millisecond}, nil
	case cfg.trace == "0":
		return plan{rows: fullRows, setups: 3, measure: secs(cfg.seconds)}, nil
	case cfg.trace == "1":
		// The budget is split between the measured run and the two sides of
		// the traced one; set-up is not a per-layer metric, so it is done once.
		return plan{rows: fullRows, setups: 1, measure: secs(0.5 * cfg.seconds), traced: secs(0.25 * cfg.seconds),
			probeFor: 40 * time.Millisecond}, nil
	}
	return plan{}, fmt.Errorf("-trace %q: want 0 or 1", cfg.trace)
}

// run executes the configured workloads, prints their tables and contract
// lines to out, writes the results file, and reports whether every check of
// every run passed.
func run(cfg config, out io.Writer) (bool, error) {
	pl, err := planFor(cfg)
	if err != nil {
		return false, err
	}
	if len(cfg.workloads) == 0 {
		for _, wl := range workloads {
			cfg.workloads = append(cfg.workloads, wl.name)
		}
	}
	var selected []workload
	for _, name := range cfg.workloads {
		wl, ok := findWorkload(name)
		if !ok {
			return false, fmt.Errorf("unknown workload %q", name)
		}
		selected = append(selected, wl)
	}
	if cfg.runs < 1 {
		return false, fmt.Errorf("-runs %d: want at least 1", cfg.runs)
	}
	if err := os.MkdirAll(cfg.dir, 0o755); err != nil {
		return false, err
	}
	scratch, err := os.MkdirTemp(cfg.dir, "scratch-")
	if err != nil {
		return false, err
	}
	defer os.RemoveAll(scratch)

	if cfg.cpuProfile != "" {
		f, err := os.Create(cfg.cpuProfile)
		if err != nil {
			return false, err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return false, err
		}
		defer pprof.StopCPUProfile()
	}

	rf := resultsFile{Meta: meta{
		GitSHA: gitSHA(), GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		Workers: numWorkers, Rows: pl.rows, Seed: cfg.seed, Runs: cfg.runs, Seconds: pl.measure.Seconds(),
		Traced: pl.traced.Seconds(), Setups: pl.setups,
		Started: time.Now().UTC().Format(time.RFC3339),
	}}
	allCorrect := true
	for _, wl := range selected {
		for i := 0; i < cfg.runs; i++ {
			res, err := runWorkload(wl, cfg.seed+int64(i), pl, scratch, cfg.dir)
			if err != nil {
				return false, fmt.Errorf("%s: %w", wl.name, err)
			}
			rf.Runs = append(rf.Runs, res)
			allCorrect = allCorrect && res.Correct
			printRun(out, res)
			line, err := contractJSON(res, cfg.trace)
			if err != nil {
				return false, err
			}
			fmt.Fprintf(out, "%s\n", line)
		}
	}

	if cfg.memProfile != "" {
		f, err := os.Create(cfg.memProfile)
		if err != nil {
			return false, err
		}
		runtime.GC()
		if err := errors.Join(pprof.WriteHeapProfile(f), f.Close()); err != nil {
			return false, err
		}
	}
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return false, err
	}
	if err := os.MkdirAll(filepath.Dir(cfg.outFile), 0o755); err != nil {
		return false, err
	}
	return allCorrect, os.WriteFile(cfg.outFile, append(data, '\n'), 0o644)
}

// gitSHA names the commit the benchmark was run at, when it runs inside a
// git checkout with git on the PATH.
func gitSHA() string {
	out, err := exec.Command("git", "rev-parse", "--short", "HEAD").Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// printRun prints one run's metrics by name, with unit and sample count.
func printRun(out io.Writer, res *runResult) {
	verdict := "all checks passed"
	if !res.Correct {
		verdict = fmt.Sprintf("%d CHECKS FAILED", res.Failed)
	}
	fmt.Fprintf(out, "\n== %s  seed %d  %d statements and checks attempted, %s ==\n", res.Workload, res.Seed, res.Attempted, verdict)
	for _, e := range res.Errors {
		fmt.Fprintf(out, "   ! %s\n", e)
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	row := func(d metricDef, ms metricSet) {
		m, ok := ms[d.Name]
		if !ok {
			return
		}
		value, n := "null", ""
		if m.Value != nil {
			value = fmt.Sprintf("%.6g", *m.Value)
		}
		if m.N > 0 {
			n = fmt.Sprintf("n=%d", m.N)
		}
		fmt.Fprintf(tw, "  %s\t%s\t%s\t%s\n", d.Name, value, d.Unit, n)
	}
	fmt.Fprintln(tw, "  end to end (2 workers, no wrappers)\t\t\t")
	for _, d := range endToEndDefs {
		row(d, res.EndToEnd)
	}
	if len(res.PerLayer) > 0 {
		fmt.Fprintln(tw, "  per layer (1 worker, traced; probes; counters)\t\t\t")
		for _, d := range perLayerDefs {
			row(d, res.PerLayer)
		}
	}
	tw.Flush()
}
