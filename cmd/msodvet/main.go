// Command msodvet is the module's custom static-analysis suite. It
// proves the MSoD fail-closed and determinism invariants at compile
// time: no error-dominated branch may grant, no audit/ADI error may be
// discarded, decision-path packages must use the injected clock, metric
// families must be literal and registered exactly once, no audit
// append / broadcast / HTTP call may run under a store mutex, and
// nothing outside the engine may write through its read-only
// *core.Decision.
//
// Usage:
//
//	go run ./cmd/msodvet ./...
//	go run ./cmd/msodvet -run failclosed,auditerr ./internal/pdp/...
//	go run ./cmd/msodvet -policies policies
//
// Findings print as "file:line: [analyzer] message". Exit status is 1
// when findings exist, 2 when the module fails to load, 0 otherwise.
// A finding is suppressible only with a reasoned directive on the same
// or preceding line:
//
//	//msod:ignore <analyzer> <reason>
//
// Unused or malformed directives are findings themselves. See
// docs/ANALYZERS.md for the invariant catalogue.
//
// -policies switches from Go sources to policy XML documents: every
// *.xml under the directory is parsed, linted and model-checked
// (internal/policycheck) and the run fails on any error- or
// warning-severity finding. Suppressions use XML comments:
//
//	<!-- msod:ignore <check> <where-prefix|*> <reason> -->
package main

import (
	"bufio"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"msod/internal/analysis"
	"msod/internal/policycheck"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("msodvet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	runList := fs.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := fs.Bool("list", false, "list analyzers and exit")
	policiesDir := fs.String("policies", "", "verify every policy XML document under this directory instead of analysing Go packages")
	fs.Usage = func() {
		fmt.Fprintln(stderr, "usage: msodvet [-run a,b] [-list] [-policies dir] [packages]")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *policiesDir != "" {
		return runPolicies(*policiesDir, stdout, stderr)
	}

	analyzers := analysis.DefaultAnalyzers()
	if *list {
		for _, a := range analyzers {
			fmt.Fprintf(stdout, "%-12s %s\n", a.Name(), a.Doc())
		}
		return 0
	}
	if *runList != "" {
		analyzers = selectAnalyzers(analyzers, *runList, stderr)
		if analyzers == nil {
			return 2
		}
	}

	root, module, err := findModule()
	if err != nil {
		fmt.Fprintf(stderr, "msodvet: %v\n", err)
		return 2
	}

	loader, err := analysis.NewLoader(root, module)
	if err != nil {
		fmt.Fprintf(stderr, "msodvet: %v\n", err)
		return 2
	}

	keep := packageFilter(fs.Args(), root)
	pkgs, err := loader.LoadAll()
	if err != nil {
		fmt.Fprintf(stderr, "msodvet: %v\n", err)
		return 2
	}
	var selected []*analysis.Package
	for _, p := range pkgs {
		if keep(p.RelPath) {
			selected = append(selected, p)
		}
	}
	if len(selected) == 0 {
		fmt.Fprintln(stderr, "msodvet: no packages matched")
		return 2
	}

	res, err := analysis.RunPackages(loader.Fset(), selected, analyzers)
	if err != nil {
		fmt.Fprintf(stderr, "msodvet: %v\n", err)
		return 2
	}

	for _, f := range res.Findings {
		fmt.Fprintln(stdout, f.String(root))
	}
	if len(res.Findings) > 0 {
		fmt.Fprintf(stderr, "msodvet: %d finding(s) in %d package(s), %d suppressed\n",
			len(res.Findings), len(selected), res.Suppressed)
		return 1
	}
	fmt.Fprintf(stderr, "msodvet: ok (%d package(s), %d finding(s) suppressed by //msod:ignore)\n",
		len(selected), res.Suppressed)
	return 0
}

// runPolicies is the -policies mode: verify every *.xml under dir with
// the policy model checker. Error- and warning-severity findings fail
// the run; info notes print but do not.
func runPolicies(dir string, stdout, stderr io.Writer) int {
	var files []string
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(path, ".xml") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		fmt.Fprintf(stderr, "msodvet: %v\n", err)
		return 2
	}
	if len(files) == 0 {
		fmt.Fprintf(stderr, "msodvet: no policy documents (*.xml) under %s\n", dir)
		return 2
	}
	sort.Strings(files)

	failing, suppressed := 0, 0
	for _, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			fmt.Fprintf(stderr, "msodvet: %v\n", err)
			return 2
		}
		res, err := policycheck.CheckSource(data, policycheck.Config{})
		if err != nil {
			fmt.Fprintf(stderr, "msodvet: %s: %v\n", file, err)
			return 2
		}
		for _, f := range res.Findings {
			fmt.Fprintf(stdout, "%s: %s\n", file, f)
		}
		failing += res.Errors() + res.Warnings()
		suppressed += res.Suppressed
	}
	if failing > 0 {
		fmt.Fprintf(stderr, "msodvet: %d failing finding(s) in %d policy document(s), %d suppressed\n",
			failing, len(files), suppressed)
		return 1
	}
	fmt.Fprintf(stderr, "msodvet: ok (%d policy document(s), %d finding(s) suppressed by msod:ignore)\n",
		len(files), suppressed)
	return 0
}

// selectAnalyzers filters by the -run list; nil means an unknown name.
func selectAnalyzers(all []analysis.Analyzer, runList string, stderr io.Writer) []analysis.Analyzer {
	byName := make(map[string]analysis.Analyzer, len(all))
	for _, a := range all {
		byName[a.Name()] = a
	}
	var out []analysis.Analyzer
	for _, name := range strings.Split(runList, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		a, ok := byName[name]
		if !ok {
			fmt.Fprintf(stderr, "msodvet: unknown analyzer %q (use -list)\n", name)
			return nil
		}
		out = append(out, a)
	}
	return out
}

// packageFilter converts go-style package patterns (./..., ./internal/pdp,
// internal/pdp/...) into a RelPath predicate. No patterns means
// everything.
func packageFilter(patterns []string, root string) func(rel string) bool {
	if len(patterns) == 0 {
		return func(string) bool { return true }
	}
	type rule struct {
		rel  string
		tree bool
	}
	var rules []rule
	for _, pat := range patterns {
		tree := false
		if strings.HasSuffix(pat, "/...") {
			tree = true
			pat = strings.TrimSuffix(pat, "/...")
		} else if pat == "..." {
			tree = true
			pat = "."
		}
		pat = strings.TrimPrefix(pat, "./")
		if pat == "." || pat == "" {
			if tree {
				return func(string) bool { return true }
			}
			rules = append(rules, rule{rel: "", tree: false})
			continue
		}
		rules = append(rules, rule{rel: filepath.ToSlash(pat), tree: tree})
	}
	return func(rel string) bool {
		for _, r := range rules {
			if rel == r.rel {
				return true
			}
			if r.tree && strings.HasPrefix(rel, r.rel+"/") {
				return true
			}
		}
		return false
	}
}

// findModule walks up from the working directory to the go.mod and
// returns the module root and module path.
func findModule() (root, module string, err error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", "", err
	}
	for {
		gomod := filepath.Join(dir, "go.mod")
		if _, statErr := os.Stat(gomod); statErr == nil {
			module, err = modulePath(gomod)
			if err != nil {
				return "", "", err
			}
			return dir, module, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", "", fmt.Errorf("no go.mod found above %s", dir)
		}
		dir = parent
	}
}

// modulePath reads the module directive from a go.mod file.
func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if rest, ok := strings.CutPrefix(line, "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no module directive", gomod)
}
