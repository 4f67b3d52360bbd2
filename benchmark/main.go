// Command benchmark is the decision benchmark BENCHMARK.json declares:
// four workloads over the systems cmd/msodd and cmd/msodgw assemble,
// every answer checked against the benchmark's own oracle, end-to-end
// metrics from untraced runs and a per-layer budget from traced ones.
// See README.md in this directory.
//
//	bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
//	bash benchmark/run.sh                      # every workload, 3 runs untraced + 1 traced, one result file
//	bash benchmark/run.sh -compare old.json new.json
//	bash benchmark/run.sh -smoke               # every workload at 1/50 size
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

const defaultSeed = 20070415

// flags are the command line.
type flags struct {
	workload string
	seed     int64
	seconds  float64
	trace    int
	traceOut string
	compare  bool
	smoke    bool
	args     []string
}

func main() {
	var f flags
	flag.StringVar(&f.workload, "workload", "", "run this one workload and print the driver's result line (default: every workload)")
	flag.Int64Var(&f.seed, "seed", defaultSeed, "the only input of the traffic generator")
	flag.Float64Var(&f.seconds, "seconds", 0, "size of a run: slice_requests are scaled by seconds / run_seconds (default: run_seconds of BENCHMARK.json)")
	flag.IntVar(&f.trace, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from the ladder and a traced slice")
	flag.StringVar(&f.traceOut, "trace-out", "", "with -trace 1: write spans as JSON lines here (default benchmark/out/trace-WORKLOAD.jsonl)")
	flag.BoolVar(&f.compare, "compare", false, "compare two result files: -compare old.json new.json")
	flag.BoolVar(&f.smoke, "smoke", false, "run every workload at 1/50 size, both ways, in this process")
	flag.Parse()
	f.args = flag.Args()
	if err := run(f); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

func run(f flags) error {
	spec, wf, err := loadConfig(".")
	if err != nil {
		return fmt.Errorf("%w (run from the root of the checkout: bash benchmark/run.sh)", err)
	}
	if f.seconds < 0 {
		return fmt.Errorf("-seconds %v is negative", f.seconds)
	}
	if f.seconds == 0 {
		f.seconds = float64(spec.RunSeconds)
	}
	outDir := filepath.Join("benchmark", "out")
	switch {
	case f.compare:
		if len(f.args) != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, spec, f.args[0], f.args[1])
	case f.smoke:
		results, err := smoke(spec, wf, f.seed, outDir, false)
		for _, res := range results {
			printResult(os.Stdout, spec, res)
		}
		return err
	case f.workload == "":
		return runAll(spec, wf, f.seed, f.seconds, outDir)
	}
	w, err := wf.workload(f.workload)
	if err != nil {
		return err
	}
	if f.trace != 0 && f.trace != 1 {
		return fmt.Errorf("-trace is 0 or 1")
	}
	o := runOptions{workload: w, seed: f.seed, seconds: f.seconds, trace: f.trace == 1, outDir: outDir, traceOut: f.traceOut}
	if o.trace && o.traceOut == "" {
		o.traceOut = filepath.Join(outDir, "trace-"+w.Name+".jsonl")
	}
	res, err := runWorkload(spec, o)
	if err != nil {
		return err
	}
	if err := writeJSON(filepath.Join(outDir, lastRunFile), res); err != nil {
		return err
	}
	printResult(os.Stdout, spec, res)
	if err := printDriverLine(os.Stdout, res); err != nil {
		return err
	}
	if !res.Correct {
		return fmt.Errorf("%s: %d wrong decisions, %d errors, problems: %v", w.Name, res.WrongDecisions, res.Errors, res.Problems)
	}
	return nil
}

// smoke runs every workload both ways at a fiftieth of the size, in
// this process. corrupt plants a wrong expectation in each run.
func smoke(spec *benchmarkSpec, wf *workloadsFile, seed int64, outDir string, corrupt bool) ([]*runResult, error) {
	var results []*runResult
	for _, w := range wf.Workloads {
		for _, traced := range []bool{false, true} {
			res, err := runWorkload(spec, runOptions{workload: w, seed: seed, seconds: float64(spec.RunSeconds) / 50,
				trace: traced, outDir: outDir, smoke: true, corrupt: corrupt})
			if err != nil {
				return results, fmt.Errorf("%s: %w", w.Name, err)
			}
			results = append(results, res)
			if !res.Correct {
				return results, fmt.Errorf("%s (trace %d): %d wrong decisions, %d errors, problems: %v",
					w.Name, res.Trace, res.WrongDecisions, res.Errors, res.Problems)
			}
		}
	}
	return results, nil
}

func writeJSON(path string, v any) error {
	raw, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(raw, '\n'), 0o644)
}
