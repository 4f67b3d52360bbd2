// Command msodbench regenerates the experiment tables of EXPERIMENTS.md.
//
// Usage:
//
//	msodbench          # run every experiment
//	msodbench -e E3    # run one experiment
//	msodbench -e E1,E4 # run a subset
//	msodbench -list    # list experiments
//
// Scenario experiments (E1–E3, E11, E12) assert the paper's expected
// outcomes and fail loudly on any mismatch; timing experiments report
// machine-dependent numbers whose *shape* is what EXPERIMENTS.md
// discusses. Performance under load is not measured here: see
// benchmark/ and BENCHMARK.json.
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"msod/internal/bench"
)

func main() {
	var (
		exps = flag.String("e", "", "comma-separated experiment IDs (default: all)")
		list = flag.Bool("list", false, "list experiments and exit")
	)
	flag.Parse()

	if *list {
		for _, e := range bench.All() {
			fmt.Printf("%-5s %s\n", e.ID, e.Title)
		}
		return
	}

	var selected []bench.Experiment
	if *exps == "" {
		selected = bench.All()
	} else {
		for _, id := range strings.Split(*exps, ",") {
			id = strings.TrimSpace(id)
			e, ok := bench.ByID(id)
			if !ok {
				fmt.Fprintf(os.Stderr, "msodbench: unknown experiment %q (use -list)\n", id)
				os.Exit(2)
			}
			selected = append(selected, e)
		}
	}

	failed := 0
	for _, e := range selected {
		tbl, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "msodbench: %s FAILED: %v\n\n", e.ID, err)
			failed++
			continue
		}
		if err := tbl.Render(os.Stdout); err != nil {
			fmt.Fprintf(os.Stderr, "msodbench: render %s: %v\n", e.ID, err)
			os.Exit(1)
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "msodbench: %d experiment(s) failed\n", failed)
		os.Exit(1)
	}
}
