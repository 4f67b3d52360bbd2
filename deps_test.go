package msod_test

import (
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
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
	assembled := []string{"adi", "audit", "pdp", "server", "inspect", "trace", "replica", "policy", "policycheck"}
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
