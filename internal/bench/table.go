// Package bench implements the experiment harness: each experiment of
// EXPERIMENTS.md (E1–E13, E15, E17) is a function producing a Table
// that cmd/msodbench renders. The same workloads back the testing.B
// benchmarks in the repository root. Throughput and latency under load
// are not measured here: that is benchmark/ (BENCHMARK.json), which is
// why the IDs have gaps.
//
// The paper contains no quantitative tables — its figures are model
// diagrams and its evaluation is two worked examples plus scalability
// claims — so each experiment either executes a paper example
// literally (E1, E2, E3) or quantifies a claim the paper makes about
// its own design (E4–E10). See DESIGN.md §4 for the full mapping.
package bench

import (
	"fmt"
	"io"
	"strings"
	"time"
)

// Table is one experiment's output.
type Table struct {
	// ID is the experiment identifier, e.g. "E1".
	ID string
	// Title says what the table shows.
	Title string
	// Ref cites the paper section/example the experiment reproduces.
	Ref string
	// Columns and Rows are the tabular payload.
	Columns []string
	Rows    [][]string
	// Notes carry interpretation guidance printed under the table.
	Notes []string
}

// Render writes the table as aligned text.
func (t *Table) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "%s — %s\n(reproduces: %s)\n\n", t.ID, t.Title, t.Ref); err != nil {
		return err
	}
	widths := make([]int, len(t.Columns))
	for i, c := range t.Columns {
		widths[i] = len(c)
	}
	for _, row := range t.Rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) string {
		parts := make([]string, len(cells))
		for i, c := range cells {
			w := 0
			if i < len(widths) {
				w = widths[i]
			}
			parts[i] = fmt.Sprintf("%-*s", w, c)
		}
		return "  " + strings.TrimRight(strings.Join(parts, "  "), " ")
	}
	if _, err := fmt.Fprintln(w, line(t.Columns)); err != nil {
		return err
	}
	sep := make([]string, len(t.Columns))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	if _, err := fmt.Fprintln(w, line(sep)); err != nil {
		return err
	}
	for _, row := range t.Rows {
		if _, err := fmt.Fprintln(w, line(row)); err != nil {
			return err
		}
	}
	for _, n := range t.Notes {
		if _, err := fmt.Fprintf(w, "  note: %s\n", n); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintln(w)
	return err
}

// Experiment couples an ID with its runner.
type Experiment struct {
	ID    string
	Title string
	Run   func() (*Table, error)
}

// All returns every experiment in order.
func All() []Experiment {
	return []Experiment{
		{"E1", "Bank cash processing (Example 1)", E1},
		{"E2", "Tax refund process (Example 2)", E2},
		{"E3", "Violation detection: SSD/DSD/MSoD", E3},
		{"E4", "Decision latency vs retained-ADI size", E4},
		{"E5", "Start-up recovery: trail replay vs snapshot", E5},
		{"E6", "MSoD vs Bertino workflow baseline", E6},
		{"E7", "Context matching cost", E7},
		{"E8", "Retained-ADI growth and purging", E8},
		{"E9", "Audit trail overhead and integrity", E9},
		{"E10", "In-process vs remote PDP latency", E10},
		{"E11", "Ablation: MMEP counting semantics", E11},
		{"E12", "Ablation: MMER under role hierarchies", E12},
		{"E13", "MSoD cost over plain RBAC", E13},
		{"E15", "Latency vs active context instances", E15},
		{"E17", "Advisory throughput vs replica count", E17},
	}
}

// ByID returns the experiment with the given ID.
func ByID(id string) (Experiment, bool) {
	for _, e := range All() {
		if e.ID == id {
			return e, true
		}
	}
	return Experiment{}, false
}

// fmtDur renders a duration with microsecond resolution.
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.2fms", float64(d.Microseconds())/1000)
	default:
		return fmt.Sprintf("%.1fµs", float64(d.Nanoseconds())/1000)
	}
}

// fmtBool renders a detection cell.
func fmtBool(b bool) string {
	if b {
		return "blocked"
	}
	return "MISSED"
}
