// Command ssbench regenerates the paper's experiment tables (DESIGN.md's
// E1–E15, the ablations A1–A4 and the scaling study S1) and prints them.
//
// Usage:
//
//	ssbench                       # quick sizes (seconds)
//	ssbench -full                 # full sizes (minutes)
//	ssbench -only E4,E5           # a subset
//	ssbench -list                 # list experiments
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"sssdb/internal/bench"
)

func main() {
	full := flag.Bool("full", false, "run full-size experiments")
	only := flag.String("only", "", "comma-separated experiment ids (e.g. E4,E11)")
	list := flag.Bool("list", false, "list experiments and exit")
	flag.Parse()

	runners := bench.All()
	if *list {
		for _, r := range runners {
			fmt.Printf("  %-4s %s\n", r.ID, r.Doc)
		}
		return
	}
	want := map[string]bool{}
	if *only != "" {
		for _, id := range strings.Split(*only, ",") {
			want[strings.ToUpper(strings.TrimSpace(id))] = true
		}
	}
	scale := bench.Scale{Full: *full}
	ran := 0
	for _, r := range runners {
		if len(want) > 0 && !want[r.ID] {
			continue
		}
		table, err := r.Fn(scale)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ssbench: %s: %v\n", r.ID, err)
			os.Exit(1)
		}
		table.Fprint(os.Stdout)
		ran++
	}
	if ran == 0 {
		fmt.Fprintln(os.Stderr, "ssbench: no experiments matched -only; use -list")
		os.Exit(1)
	}
}
