package msod_test

import (
	"bufio"
	"fmt"
	"go/scanner"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// codeSizeTable is the committed count of each package's code lines.
const codeSizeTable = "testdata/code_size.txt"

// codeLines counts the lines of a Go source that hold a token: comments
// and blank lines do not count, and a string literal counts every line
// it spans.
func codeLines(src []byte) int {
	fset := token.NewFileSet()
	file := fset.AddFile("", fset.Base(), len(src))
	var s scanner.Scanner
	s.Init(file, src, nil, 0)
	lines := map[int]bool{}
	for {
		pos, tok, lit := s.Scan()
		if tok == token.EOF {
			return len(lines)
		}
		if tok == token.SEMICOLON && lit == "\n" {
			continue // inserted at a line's end, not a token of its own
		}
		line := file.Line(pos)
		for i := 0; i <= strings.Count(lit, "\n"); i++ {
			lines[line+i] = true
		}
	}
}

// packageSizes counts the non-test Go code lines of every package
// directory of the module outside benchmark/ (its own module) and
// testdata/, keyed by directory ("." is the facade).
func packageSizes(t *testing.T) map[string]int {
	t.Helper()
	sizes := map[string]int{}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != "." && (p == "benchmark" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(p)
		if err != nil {
			return err
		}
		sizes[filepath.ToSlash(filepath.Dir(p))] += codeLines(src)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return sizes
}

// TestCodeSize holds every package's code lines to its row of the
// committed table, as make allocs holds a decision to its allocations:
// a change that grows or shrinks a package edits the row in the same
// commit, so what the change costs in code is a number in its diff.
func TestCodeSize(t *testing.T) {
	if n := codeLines([]byte("package p\n\n// c\nvar s = `a\nb`\n/* d\ne */ func f() {}\n")); n != 4 {
		t.Fatalf("codeLines counts %d lines of the sample, want 4", n)
	}
	f, err := os.Open(codeSizeTable)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := map[string]int{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 || strings.HasPrefix(fields[0], "#") {
			continue
		}
		n, err := strconv.Atoi(fields[len(fields)-1])
		if len(fields) != 2 || err != nil {
			t.Fatalf("%s: row %q is not a directory and a count", codeSizeTable, sc.Text())
		}
		want[fields[0]] = n
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	got := packageSizes(t)
	var dirs []string
	for dir := range got {
		dirs = append(dirs, dir)
	}
	for dir := range want {
		if _, ok := got[dir]; !ok {
			dirs = append(dirs, dir)
		}
	}
	sort.Strings(dirs)
	var table strings.Builder
	total, failed := 0, false
	for _, dir := range dirs {
		if g, w := got[dir], want[dir]; g != w {
			t.Errorf("%s: %d code lines, %s says %d", dir, g, codeSizeTable, w)
			failed = true
		}
		if got[dir] > 0 {
			fmt.Fprintf(&table, "%s %d\n", dir, got[dir])
			total += got[dir]
		}
	}
	if failed {
		t.Logf("the table as the tree counts it (%d lines in all):\n%s", total, table.String())
	}
}
