package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
)

// printResult lists every metric of a run by name with its unit, in the
// order BENCHMARK.json declares them.
func printResult(w io.Writer, spec *benchmarkSpec, res *runResult) {
	fmt.Fprintf(w, "== %s  seed=%d  trace=%d  seconds=%g  attempted=%d  wrong_decisions=%d  errors=%d\n",
		res.Workload, res.Seed, res.Trace, res.Seconds, res.Attempted, res.WrongDecisions, res.Errors)
	specs := spec.EndToEnd
	if res.Trace == 1 {
		specs = spec.PerLayer
	}
	for _, s := range specs {
		v, ok := res.Metrics[s.Name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("%-40s %14.4f %-5s", s.Name, v.Value, v.Unit)
		if v.Min != nil {
			line += fmt.Sprintf("  min %.4f  max %.4f  over %d", *v.Min, *v.Max, len(v.Slices))
		}
		if len(v.Samples) > 0 {
			line += fmt.Sprintf("  samples/slice %d  beyond %d", v.Samples[0], v.Beyond[0])
		}
		fmt.Fprintln(w, line)
	}
	for _, p := range res.Problems {
		fmt.Fprintln(w, "PROBLEM:", p)
	}
}

// printDriverLine prints the one JSON object the driver reads from the
// last line of standard output.
func printDriverLine(w io.Writer, res *runResult) error {
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.Correct, res.Attempted, res.Failed, map[string]value{}}
	for name, v := range res.Metrics {
		line.Metrics[name] = value{v.Value, v.Unit}
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(raw))
	return err
}

// resultSet is the file a run over every workload writes and -compare
// reads.
type resultSet struct {
	Provenance provenance   `json:"provenance"`
	Runs       []*runResult `json:"runs"`
}

// provenance says what was measured, how, and where.
type provenance struct {
	// Commit is HEAD of the checkout when it is a git repository.
	Commit string `json:"commit,omitempty"`
	// TreeSHA256 identifies the sources actually built, committed or
	// not: a hash over every Go, go.mod and JSON file of the checkout.
	TreeSHA256 string  `json:"tree_sha256"`
	GoVersion  string  `json:"go_version"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Shape      shape   `json:"run"`
}

// shape records the constants of config.go and gen.go a result was
// taken with, and each workload's slice size.
type shape struct {
	Clients          int            `json:"clients"`
	Slices           int            `json:"slices"`
	SliceRequests    map[string]int `json:"slice_requests"`
	SetupRepeats     int            `json:"setup_repeats"`
	RunsPerWorkload  int            `json:"runs_per_workload"`
	FlushModelMicros int64          `json:"flush_model_us"`
	FlushModelNote   string         `json:"flush_model"`
	LadderRequests   int            `json:"ladder_requests"`
	TraceMaxRequests int            `json:"trace_max_requests"`
	GatewayShards    int            `json:"gateway_shards"`
	Population       map[string]int `json:"population"`
}

func newProvenance(root string, spec *benchmarkSpec, wf *workloadsFile, seed int64, seconds float64) (provenance, error) {
	tree, err := treeHash(root)
	if err != nil {
		return provenance{}, err
	}
	commit, err := headCommit(root)
	if err != nil {
		return provenance{}, err
	}
	sh := shape{
		Clients: numClients, Slices: measuredSlices, SliceRequests: map[string]int{},
		SetupRepeats: setupRepeats, RunsPerWorkload: setRuns,
		FlushModelMicros: flushModel.Microseconds(),
		FlushModelNote:   "Sync() is modelled as a blocking nanosleep, not an fsync",
		LadderRequests:   ladderRequests, TraceMaxRequests: traceMaxRequests, GatewayShards: gatewayShards,
		Population: map[string]int{
			"msod_policies": 2 + fillerPolicies, "bank_users": bankUsers, "bank_branches": bankBranches,
			"bank_period_requests": bankPeriodLen, "bank_period_staff": bankStaff,
			"bank_period_templates": fullSize.bankTemplates,
			"tax_clerks":            taxClerks, "tax_managers": taxManagers, "tax_offices": taxOffices,
			"tax_process_templates": fullSize.taxTemplates,
		},
	}
	for _, w := range wf.Workloads {
		sh.SliceRequests[w.Name] = sliceRequests(spec, w, seconds)
	}
	return provenance{
		Commit: commit, TreeSHA256: tree,
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Seed: seed, Seconds: seconds, Shape: sh,
	}, nil
}

// headCommit resolves HEAD from the .git directory without running
// git. A checkout that is not a repository (the driver's) has no
// commit; the tree hash identifies it. A repository whose HEAD cannot
// be resolved is an error — never "unknown".
func headCommit(root string) (string, error) {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if os.IsNotExist(err) {
		return "", nil
	}
	if err != nil {
		return "", err
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref, nil // detached HEAD holds the hash itself
	}
	if raw, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(raw)), nil
	}
	packed, err := os.ReadFile(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return "", fmt.Errorf("cannot resolve %s to a commit", ref)
	}
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash, nil
		}
	}
	return "", fmt.Errorf("cannot resolve %s to a commit", ref)
}

// treeHash hashes the path and content of every source and
// configuration file of the checkout, build outputs excluded.
func treeHash(root string) (string, error) {
	var files []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, _ := filepath.Rel(root, path)
		if d.IsDir() {
			if rel == ".git" || rel == ".bench_build" || rel == filepath.Join("benchmark", "out") || rel == filepath.Join("benchmark", "results") {
				return filepath.SkipDir
			}
			return nil
		}
		switch filepath.Ext(path) {
		case ".go", ".mod", ".json", ".sh":
			files = append(files, rel)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	for _, rel := range files {
		raw, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(rel), len(raw))
		h.Write(raw)
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

// Files a run leaves in benchmark/out/ (git-ignored).
const (
	// lastRunFile is the full result of the last single run: what the
	// driver line says plus every slice, min, max and sample count.
	lastRunFile = "last-run.json"
	// resultFile is what a run over every workload writes and -compare
	// reads; move it aside to keep it.
	resultFile = "result.json"
)

// runAll measures every workload — setRuns times untraced, each with
// the next seed, and once traced — and writes one result file. Each run
// is a fresh process of this same binary, exactly what the driver
// starts, so no run inherits heap, connections or caches from the one
// before it. The untraced runs are repeated because only run-to-run
// spread says what a difference between two result files means.
func runAll(spec *benchmarkSpec, wf *workloadsFile, seed int64, seconds float64, outDir string) error {
	prov, err := newProvenance(".", spec, wf, seed, seconds)
	if err != nil {
		return err
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	set := resultSet{Provenance: prov}
	failed := false
	last := filepath.Join(outDir, lastRunFile)
	for _, w := range wf.Workloads {
		for i := 0; i <= setRuns; i++ {
			trace, runSeed := 0, seed+int64(i)
			if i == setRuns {
				trace, runSeed = 1, seed
			}
			if err := os.Remove(last); err != nil && !os.IsNotExist(err) {
				return err
			}
			cmd := exec.Command(self, "-workload", w.Name, "-seed", strconv.FormatInt(runSeed, 10),
				"-seconds", strconv.FormatFloat(seconds, 'g', -1, 64), "-trace", strconv.Itoa(trace))
			cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
			runErr := cmd.Run()
			var res runResult
			if err := loadJSON(last, &res); err != nil {
				return fmt.Errorf("%s (trace %d) left no result: %v (%v)", w.Name, trace, err, runErr)
			}
			set.Runs = append(set.Runs, &res)
			failed = failed || runErr != nil || !res.Correct
		}
	}
	out := filepath.Join(outDir, resultFile)
	if err := writeJSON(out, set); err != nil {
		return err
	}
	fmt.Printf("result written to %s\n", out)
	if failed {
		return fmt.Errorf("at least one run was not correct; see PROBLEM lines above")
	}
	return nil
}
