package bench

import (
	"bytes"
	"strings"
	"testing"
)

// TestScenarioExperiments runs the assertion-bearing experiments (E1–E3,
// E6's equivalence is asserted inside E2) — these must always pass, as
// they encode the paper's expected outcomes.
func TestScenarioExperiments(t *testing.T) {
	for _, id := range []string{"E1", "E2", "E3", "E11", "E12"} {
		exp, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		tbl, err := exp.Run()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s produced no rows", id)
		}
		var buf bytes.Buffer
		if err := tbl.Render(&buf); err != nil {
			t.Errorf("%s render: %v", id, err)
		}
		if !strings.Contains(buf.String(), id) {
			t.Errorf("%s render missing ID header", id)
		}
	}
}

// TestE3TableShape: the detection matrix has one row per scenario and
// one column per mechanism, with MSoD blocking everywhere.
func TestE3TableShape(t *testing.T) {
	tbl, err := E3()
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Columns) != 5 { // scenario + 4 mechanisms
		t.Fatalf("columns = %v", tbl.Columns)
	}
	if len(tbl.Rows) != 5 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	for _, row := range tbl.Rows {
		if row[len(row)-1] != "blocked" {
			t.Errorf("MSoD column not blocked in %v", row)
		}
	}
}

// TestPerfExperimentsSmoke runs the timing experiments with their full
// harness but does not assert absolute numbers — only that they complete
// and produce well-formed tables. E4/E5 are trimmed by -short.
func TestPerfExperimentsSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("perf experiments skipped in -short mode")
	}
	for _, id := range []string{"E4", "E5", "E6", "E7", "E8", "E9", "E10", "E13", "E15"} {
		exp, ok := ByID(id)
		if !ok {
			t.Fatalf("experiment %s not registered", id)
		}
		tbl, err := exp.Run()
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tbl.Rows) == 0 || len(tbl.Columns) == 0 {
			t.Errorf("%s table malformed: %+v", id, tbl)
		}
	}
}

func TestRegistry(t *testing.T) {
	// Listed explicitly so adding or removing an experiment is a
	// visible diff here.
	want := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9",
		"E10", "E11", "E12", "E13", "E15", "E17"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registered %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Errorf("experiment %d is %s, want %s", i, e.ID, want[i])
		}
		if e.Run == nil || e.Title == "" {
			t.Errorf("experiment %+v incomplete", e)
		}
	}
	if _, ok := ByID("E99"); ok {
		t.Error("unknown experiment found")
	}
}

func TestTableRender(t *testing.T) {
	tbl := &Table{
		ID: "EX", Title: "demo", Ref: "nowhere",
		Columns: []string{"a", "long-column"},
		Rows:    [][]string{{"1", "2"}, {"wide-cell", "3"}},
		Notes:   []string{"a note"},
	}
	var buf bytes.Buffer
	if err := tbl.Render(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"EX — demo", "long-column", "wide-cell", "note: a note"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}
