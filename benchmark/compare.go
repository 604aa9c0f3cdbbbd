package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"text/tabwriter"
)

// resultsFile is what -out writes and -compare reads: one set of runs of
// the same code. A workload may appear several times (one run per seed);
// -compare then works on medians and knows the spread.
type resultsFile struct {
	Meta meta         `json:"meta"`
	Runs []*runResult `json:"runs"`
}

// meta records where and how a set of runs was made.
type meta struct {
	GitSHA     string  `json:"git_sha"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	Workers    int     `json:"workers"`
	Rows       int     `json:"rows"`
	Seed       int64   `json:"seed"`
	Runs       int     `json:"runs_per_workload"`
	Seconds    float64 `json:"measure_seconds"`
	Traced     float64 `json:"traced_seconds"` // tracer on; as long again with it off
	Setups     int     `json:"setups_per_run"`
	Started    string  `json:"started"`
}

func readResults(path string) (*resultsFile, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var rf resultsFile
	if err := json.Unmarshal(data, &rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &rf, nil
}

// values collects the non-null values of one end-to-end metric over every
// run of one workload.
func (rf *resultsFile) values(workload, name string) []float64 {
	var out []float64
	for _, r := range rf.Runs {
		if r.Workload != workload {
			continue
		}
		if m, ok := r.EndToEnd[name]; ok && m.Value != nil {
			out = append(out, *m.Value)
		}
	}
	return out
}

// Verdicts of one (metric, workload) pair.
const (
	verdictImproved   = "improved"
	verdictUnchanged  = "unchanged"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved" // run-to-run spread wider than the bound
)

// judge classifies the move from the old runs to the new ones of a metric.
// worse is the relative worsening of the median (negative = better) and
// spread the wider of the two sets' quartile spreads.
func judge(d metricDef, old, new []float64) (verdict string, worse, spread float64) {
	mo, mn := median(append([]float64(nil), old...)), median(append([]float64(nil), new...))
	spread = max(quartileSpread(old), quartileSpread(new))
	switch {
	case mo == mn:
		worse = 0
	case mo == 0:
		worse = 1 // from nothing to something: only error_rate can do this
	default:
		worse = (mn - mo) / mo
	}
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case d.Bound == 0 && worse > 0:
		return verdictRegressed, worse, spread
	case d.Bound == 0 && worse < 0:
		return verdictImproved, worse, spread
	case d.Bound == 0:
		return verdictUnchanged, worse, spread
	case spread > d.Bound:
		return verdictUnresolved, worse, spread
	case worse > d.Bound:
		return verdictRegressed, worse, spread
	case worse < -d.Bound:
		return verdictImproved, worse, spread
	}
	return verdictUnchanged, worse, spread
}

// compareFiles prints one row per (metric, workload) present in both files
// and reports whether any regressed.
func compareFiles(oldPath, newPath string, out io.Writer) (regressed bool, err error) {
	oldRF, err := readResults(oldPath)
	if err != nil {
		return false, err
	}
	newRF, err := readResults(newPath)
	if err != nil {
		return false, err
	}
	tw := tabwriter.NewWriter(out, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\told median\tnew median\tunit\tworse by\tspread\tbound\truns\tverdict")
	counts := map[string]int{}
	for _, wl := range workloads {
		for _, d := range endToEndDefs {
			o, n := oldRF.values(wl.name, d.Name), newRF.values(wl.name, d.Name)
			if len(o) == 0 || len(n) == 0 {
				continue
			}
			verdict, worse, spread := judge(d, o, n)
			counts[verdict]++
			regressed = regressed || verdict == verdictRegressed
			fmt.Fprintf(tw, "%s\t%s\t%.6g\t%.6g\t%s\t%+.2f%%\t%.2f%%\t%.0f%%\t%d/%d\t%s\n",
				wl.name, d.Name, median(o), median(n), d.Unit, 100*worse, 100*spread, 100*d.Bound, len(o), len(n), verdict)
		}
	}
	if err := tw.Flush(); err != nil {
		return regressed, err
	}
	fmt.Fprintf(out, "%d improved, %d unchanged, %d regressed, %d unresolved\n",
		counts[verdictImproved], counts[verdictUnchanged], counts[verdictRegressed], counts[verdictUnresolved])
	return regressed, nil
}
