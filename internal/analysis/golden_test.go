package analysis

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite golden finding files")

// runFixture loads one testdata module and runs the full default
// analyzer suite over it.
func runFixture(t *testing.T, dir, module string) (*Result, string) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src", dir))
	if err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(root, module)
	if err != nil {
		t.Fatalf("load fixture %s: %v", dir, err)
	}
	res, err := Run(l, DefaultAnalyzers())
	if err != nil {
		t.Fatalf("run fixture %s: %v", dir, err)
	}
	return res, root
}

// TestBadFixtureGolden pins every analyzer's findings on the seeded
// violation corpus: one golden line per finding, in the driver's
// canonical file:line: [analyzer] message form.
func TestBadFixtureGolden(t *testing.T) {
	res, root := runFixture(t, "bad", "badmod")
	var lines []string
	for _, f := range res.Findings {
		lines = append(lines, f.String(root))
	}
	got := strings.Join(lines, "\n") + "\n"

	goldenPath := filepath.Join("testdata", "bad.golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("read golden (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("findings diverge from golden file\n--- got ---\n%s--- want ---\n%s", got, want)
	}

	// The corpus must exercise every analyzer, or a regression in one
	// of them could silently empty its section of the golden file.
	for _, name := range []string{"failclosed", "auditerr", "clockuse", "ctxflow", "metricname", "lockspan", "decisionro", "ignore"} {
		found := false
		for _, f := range res.Findings {
			if f.Analyzer == name {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("bad fixture produced no %s finding; the corpus no longer covers that analyzer", name)
		}
	}
}

// TestGoodFixtureClean asserts the compliant mirror corpus is finding
// free, and that its one deliberate suppression is counted rather than
// silently swallowed.
func TestGoodFixtureClean(t *testing.T) {
	res, root := runFixture(t, "good", "goodmod")
	for _, f := range res.Findings {
		t.Errorf("unexpected finding in clean fixture: %s", f.String(root))
	}
	if res.Suppressed != 1 {
		t.Errorf("suppressed = %d, want exactly 1 (the reasoned clockuse directive)", res.Suppressed)
	}
}

// TestSeededViolationFailsSuite is the self-test the CI contract leans
// on: a freshly seeded fail-closed violation must be caught. If this
// test fails, the suite has stopped proving anything.
func TestSeededViolationFailsSuite(t *testing.T) {
	dir := t.TempDir()
	pkgDir := filepath.Join(dir, "internal", "pdp")
	if err := os.MkdirAll(pkgDir, 0o755); err != nil {
		t.Fatal(err)
	}
	src := `package pdp

type Decision struct{ Allowed bool }

func Decide(err error) Decision {
	if err != nil {
		return Decision{Allowed: true}
	}
	return Decision{}
}
`
	if err := os.WriteFile(filepath.Join(pkgDir, "pdp.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	l, err := NewLoader(dir, "seeded")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(l, DefaultAnalyzers())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Findings) == 0 {
		t.Fatal("seeded error-path grant produced no findings; failclosed is not protecting the tree")
	}
	if res.Findings[0].Analyzer != "failclosed" {
		t.Errorf("finding attributed to %q, want failclosed", res.Findings[0].Analyzer)
	}
}
