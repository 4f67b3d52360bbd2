package msod_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// daemonForbidden are the reference model and baselines, the workload
// generators and the fault suites the tests compare against. A daemon that links
// one of them ships a simulator to production; the usual way in is
// importing the root msod facade, which re-exports the workflow API for
// library users.
var daemonForbidden = []string{
	"msod/internal/bertino",
	"msod/internal/vo",
	"msod/internal/workflow",
	"msod/internal/workload",
	"msod/internal/fault",
	"msod/internal/refmodel",
}

// TestDaemonsLinkOnlyWhatTheyServe walks the non-test import graph of
// each shipped daemon and of msodctl, and fails when the closure
// reaches a forbidden package, naming the import chain.
func TestDaemonsLinkOnlyWhatTheyServe(t *testing.T) {
	for _, cmd := range []string{"msod/cmd/msodd", "msod/cmd/msodgw", "msod/cmd/msodctl"} {
		via := importClosure(t, cmd)
		for _, bad := range daemonForbidden {
			if _, linked := via[bad]; linked {
				t.Errorf("%s links %s: %s", cmd, bad, importChain(via, bad))
			}
		}
	}
}

// TestDaemonsAssembleThroughNode: msodd and msodgw are flag parsing,
// signals and a listener over internal/node, which builds what they
// serve; a daemon importing a layer of the shard itself would be a
// second assembly. node is the daemons' alone: no other non-test
// package outside cmd/ imports it.
func TestDaemonsAssembleThroughNode(t *testing.T) {
	assembled := []string{"adi", "audit", "pdp", "server", "inspect", "trace", "policy", "policycheck"}
	for _, cmd := range []string{"msod/cmd/msodd", "msod/cmd/msodgw"} {
		for _, imp := range moduleImports(t, cmd) {
			for _, layer := range assembled {
				if imp == "msod/internal/"+layer {
					t.Errorf("%s imports %s; it belongs behind msod/internal/node", cmd, imp)
				}
			}
		}
	}
	err := fs.WalkDir(os.DirFS("."), ".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." && (dir == "cmd" || dir == "benchmark" || d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".")) {
			return fs.SkipDir
		}
		pkg := path.Join("msod", dir)
		if dir == "." {
			pkg = "msod"
		}
		for _, imp := range moduleImports(t, pkg) {
			if imp == "msod/internal/node" {
				t.Errorf("%s imports msod/internal/node; only the daemons under cmd/ may", pkg)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// importClosure walks the non-test import graph of the module from pkg
// and maps every package it reaches to its first importer (pkg to "").
func importClosure(t *testing.T, pkg string) map[string]string {
	t.Helper()
	via := map[string]string{pkg: ""}
	for queue := []string{pkg}; len(queue) > 0; queue = queue[1:] {
		for _, imp := range moduleImports(t, queue[0]) {
			if _, seen := via[imp]; !seen {
				via[imp] = queue[0]
				queue = append(queue, imp)
			}
		}
	}
	return via
}

// importChain names the import path importClosure found to pkg.
func importChain(via map[string]string, pkg string) string {
	chain := pkg
	for p := via[pkg]; p != ""; p = via[p] {
		chain = p + " -> " + chain
	}
	return chain
}

// TestModuleLayers holds the module to DESIGN.md §2's layer table.
// Every directory under internal/ has one row, and every row names one
// of them. A package's non-test code imports only packages of strictly
// lower layers, and only those its row names when the row narrows its
// imports ("only ..."), unless the import is an exception listed under
// the table. Every listed exception must still be needed, so that
// deleting the import means deleting the line.
func TestModuleLayers(t *testing.T) {
	layer, only, except := readLayerTable(t)
	dirs, err := os.ReadDir("internal")
	if err != nil {
		t.Fatal(err)
	}
	hasDir, imported := map[string]bool{}, map[[2]string]bool{}
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		pkg := "internal/" + d.Name()
		hasDir[pkg] = true
		from, ranked := layer[pkg]
		if !ranked {
			t.Errorf("%s has no row in DESIGN.md §2; give it a layer", pkg)
		}
		for _, imp := range moduleImports(t, "msod/"+pkg) {
			imp = strings.TrimPrefix(imp, "msod/")
			edge := [2]string{pkg, imp}
			if imported[edge] {
				continue // another file's import of the same package
			}
			imported[edge] = true
			if narrowing, narrowed := only[pkg]; narrowed && !strings.Contains(narrowing, "`"+path.Base(imp)+"`") {
				t.Errorf("%s imports %s; its row in DESIGN.md §2 allows only %s", pkg, imp, narrowing)
			}
			switch to, ok := layer[imp]; {
			case except[edge]:
			case !ok:
				t.Errorf("%s imports %s, which has no layer in DESIGN.md §2", pkg, imp)
			case ranked && to >= from:
				t.Errorf("%s (layer %d) imports %s (layer %d); an import goes to a strictly lower layer or is an exception listed in DESIGN.md §2", pkg, from, imp, to)
			}
		}
	}
	for pkg := range layer {
		if !hasDir[pkg] {
			t.Errorf("DESIGN.md §2 has a row for %s, which is no directory under internal/", pkg)
		}
	}
	for edge := range except {
		if !imported[edge] {
			t.Errorf("DESIGN.md §2 lists the exception %s → %s, which no import needs; delete it", edge[0], edge[1])
		}
	}
}

// The four tests below pin the layer rules that hold for a reason the
// table does not state. TestModuleLayers checks the code against
// whatever DESIGN.md §2 says; these fail if the table is edited to
// loosen one of them as well as the code.

// TestCoreDoesNotReachExplain: the engine hands an explained decision's
// rules to core.Explainer as the values it holds, and internal/explain
// renders them. core reaching explain, directly or through any package
// it imports, would put the rendering back on the engine's side of the
// seam.
func TestCoreDoesNotReachExplain(t *testing.T) {
	via := importClosure(t, "msod/internal/core")
	if _, reached := via["msod/internal/explain"]; reached {
		t.Errorf("msod/internal/core reaches msod/internal/explain: %s", importChain(via, "msod/internal/explain"))
	}
}

// TestRingImportsNothingOfTheModule: internal/ring is the bounded
// retention every telemetry layer files into, so it sits under all of
// them and may import none.
func TestRingImportsNothingOfTheModule(t *testing.T) {
	if imps := moduleImports(t, "msod/internal/ring"); len(imps) > 0 {
		t.Errorf("msod/internal/ring imports %v; it must stay dependency-free", imps)
	}
}

// TestJSONXImportsNothingOfTheModule: internal/jsonx writes the lines
// of both durable logs, the retained ADI's WAL and the audit trail, so
// it sits under both and may import neither.
func TestJSONXImportsNothingOfTheModule(t *testing.T) {
	if imps := moduleImports(t, "msod/internal/jsonx"); len(imps) > 0 {
		t.Errorf("msod/internal/jsonx imports %v; it must stay dependency-free", imps)
	}
}

// TestRefmodelImportsOnlyTheVocabulary: internal/refmodel is the
// reference every implementation of §4.2 is checked against, so it
// shares no code with any of them. It may import the names (bctx,
// rbac) and the policy format it is built from, and nothing else of
// the module.
func TestRefmodelImportsOnlyTheVocabulary(t *testing.T) {
	allowed := map[string]bool{"msod/internal/bctx": true, "msod/internal/rbac": true, "msod/internal/policy": true}
	for _, imp := range moduleImports(t, "msod/internal/refmodel") {
		if !allowed[imp] {
			t.Errorf("msod/internal/refmodel imports %s; it may import only bctx, rbac and policy", imp)
		}
	}
}

// readLayerTable reads DESIGN.md §2: each row's package and layer, the
// narrowing of the rows that have one, and the exceptions listed under
// the table. A row's first cell is a number, optionally followed by a
// name and then by "; only" and the backquoted packages it may import;
// its third cell is the backquoted package. An exception is a list item
// "`internal/a` → `internal/b`". Packages are module-relative.
func readLayerTable(t *testing.T) (layer map[string]int, only map[string]string, except map[[2]string]bool) {
	t.Helper()
	raw, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "\n## 2. ")
	if start < 0 {
		t.Fatal("DESIGN.md has no section 2")
	}
	section, _, _ := strings.Cut(doc[start+1:], "\n## ")
	row := regexp.MustCompile("^\\| ([0-9]+)[^|;]*(; only [^|]*)? \\| [^|]* \\| `(internal/[^`]+)` \\|")
	exception := regexp.MustCompile("^- `(internal/[^`]+)` → `(internal/[^`]+)`")
	layer, only, except = map[string]int{}, map[string]string{}, map[[2]string]bool{}
	for _, line := range strings.Split(section, "\n") {
		if m := exception.FindStringSubmatch(line); m != nil {
			except[[2]string{m[1], m[2]}] = true
		}
		if !strings.HasPrefix(line, "| ") || strings.HasPrefix(line, "| Layer |") {
			continue
		}
		m := row.FindStringSubmatch(line)
		if m == nil {
			t.Errorf("DESIGN.md §2 row names no layer and package: %.60s", line)
			continue
		}
		if _, dup := layer[m[3]]; dup {
			t.Errorf("DESIGN.md §2 has two rows for %s", m[3])
		}
		layer[m[3]], _ = strconv.Atoi(m[1])
		if m[2] != "" {
			only[m[3]] = strings.TrimPrefix(m[2], "; only ")
		}
	}
	if len(layer) == 0 {
		t.Fatal("DESIGN.md §2 has no layer table")
	}
	return layer, only, except
}

// moduleImports returns the in-module packages that pkg's non-test
// files import. Paths are module paths ("msod" is the repository root).
func moduleImports(t *testing.T, pkg string) []string {
	t.Helper()
	dir := path.Join(".", strings.TrimPrefix(pkg, "msod"))
	pkgs, err := parser.ParseDir(token.NewFileSet(), dir, func(fi fs.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ImportsOnly)
	if err != nil {
		t.Fatalf("%s: %v", pkg, err)
	}
	var out []string
	for _, p := range pkgs {
		for _, f := range p.Files {
			for _, spec := range f.Imports {
				imp, err := strconv.Unquote(spec.Path.Value)
				if err != nil {
					t.Fatalf("%s: import %s: %v", pkg, spec.Path.Value, err)
				}
				if imp == "msod" || strings.HasPrefix(imp, "msod/") {
					out = append(out, imp)
				}
			}
		}
	}
	return out
}
