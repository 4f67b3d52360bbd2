package msod_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"
	"time"

	"msod"
)

// TestFacadeSurface exercises the facade constructors the other facade
// tests do not: the durable store under a PDP, the linker, and the
// directory with its allocator, HTTP server and client.
func TestFacadeSurface(t *testing.T) {
	pol, err := msod.ParsePolicy([]byte(bankXML))
	if err != nil {
		t.Fatal(err)
	}

	// Durable store: a grant survives a compact, close and reopen.
	dir := filepath.Join(t.TempDir(), "durable")
	ds, err := msod.OpenDurableADI(dir, []byte("d"), false)
	if err != nil {
		t.Fatal(err)
	}
	p, err := msod.NewPDP(msod.PDPConfig{Policy: pol, Store: ds})
	if err != nil {
		t.Fatal(err)
	}
	if dec, err := p.Decide(msod.Request{
		User: "alice", Roles: []msod.RoleName{"Teller"},
		Operation: "HandleCash", Target: "till",
		Context: msod.MustContext("Branch=York, Period=2006"),
	}); err != nil || !dec.Allowed {
		t.Fatalf("teller = %+v, %v", dec, err)
	}
	if err := ds.Compact(); err != nil {
		t.Fatal(err)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}
	if ds, err = msod.OpenDurableADI(dir, []byte("d"), false); err != nil {
		t.Fatal(err)
	}
	if n := ds.Len(); n != 1 {
		t.Errorf("reopened durable store holds %d records, want 1", n)
	}
	if err := ds.Close(); err != nil {
		t.Fatal(err)
	}

	// Linker.
	lk := msod.NewLinker()
	lk.Link("issuer", "alias", "local")
	if got := lk.Resolve("issuer", "alias"); got != "local" {
		t.Errorf("Resolve = %q", got)
	}

	// Directory + allocator + HTTP server/client.
	repo := msod.NewDirectory()
	auth, err := msod.NewAuthority("soa")
	if err != nil {
		t.Fatal(err)
	}
	alloc, err := msod.NewAllocator(auth, repo)
	if err != nil {
		t.Fatal(err)
	}
	now := time.Now()
	if _, err := alloc.Allocate("alice", "Teller", now.Add(-time.Hour), now.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(msod.NewDirectoryServer(repo))
	defer ts.Close()
	creds, err := msod.NewDirectoryClient(ts.URL).Fetch("alice", now)
	if err != nil || len(creds) != 1 {
		t.Fatalf("directory fetch = %v, %v", creds, err)
	}
}

// TestFacadeVerifySurface: LintPolicy carries the model checker's
// findings. They reach it only because the facade links
// internal/policycheck, whose init registers the checker with
// policy.Lint; drop that import and this fails.
func TestFacadeVerifySurface(t *testing.T) {
	// A provably broken policy: the LastStep is granted to nobody.
	broken := []byte(`
<RBACPolicy id="broken">
  <RoleList><Role value="Clerk"/></RoleList>
  <TargetAccessPolicy><Grant role="Clerk" operation="prepare" target="check"/></TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="P=!">
      <LastStep operation="confirm" targetURI="audit"/>
      <MMEP ForbiddenCardinality="2">
        <Privilege operation="prepare" target="check"/>
        <Privilege operation="confirm" target="audit"/>
      </MMEP>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>`)
	pol, err := msod.ParsePolicy(broken)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := msod.LintPolicy(pol)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		if f.Severity == "error" && f.Check != "" {
			return
		}
	}
	t.Errorf("LintPolicy reported no model-checker error finding: %v", findings)
}

// facadeUnreached lists the exported facade names that no caller names
// and no survivor's signature carries, each with why it stays.
var facadeUnreached = map[string]string{
	"NewEnforcer":  "the one constructor of the PEP's Enforcer (Figure 3's AEF); TestPEPFlow guards Do through it",
	"ErrDenied":    "Enforcer.Do returns it on a denial; callers test it with errors.Is",
	"ParseContext": "the non-panicking parse of a context from input; ExampleParseContext documents it",
}

// facadeCallers are where a caller of the facade names it as msod.X.
var facadeCallers = []string{"examples", "docs", "internal", "README.md", "example_test.go"}

// TestFacadeNamesAreReached: every exported name of msod.go is named
// (msod.X) by a caller in facadeCallers, appears in the signature of a
// name that survives, or has a reason in facadeUnreached; and every
// facadeUnreached entry names an exported identifier that is reached
// no other way.
func TestFacadeNamesAreReached(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "msod.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	// exported maps each exported name to the exported names its
	// signature carries (nil for a type, constant or variable).
	exported := map[string][]string{}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if d.Recv == nil && d.Name.IsExported() {
				exported[d.Name.Name] = signatureNames(d.Type)
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					exported[s.Name.Name] = nil
				case *ast.ValueSpec:
					for _, n := range s.Names {
						exported[n.Name] = nil
					}
				}
			}
		}
	}
	for name := range exported {
		if !ast.IsExported(name) {
			delete(exported, name)
		}
	}

	named := namedByCallers(t)
	// reach closes a set of names over the signatures they carry.
	reach := func(roots map[string]bool) map[string]bool {
		seen := map[string]bool{}
		var visit func(string)
		visit = func(name string) {
			if seen[name] {
				return
			}
			seen[name] = true
			for _, n := range exported[name] {
				visit(n)
			}
		}
		for name := range roots {
			if _, ok := exported[name]; ok {
				visit(name)
			}
		}
		return seen
	}
	reached := reach(named)
	kept := map[string]bool{}
	for name := range facadeUnreached {
		if _, ok := exported[name]; !ok {
			t.Errorf("facadeUnreached lists %s, which msod.go no longer exports", name)
		} else if reached[name] {
			t.Errorf("facadeUnreached lists %s, which a caller or a survivor's signature reaches: drop its reason", name)
		}
		kept[name] = true
	}
	for name := range named {
		kept[name] = true
	}
	survivors := reach(kept)

	var orphans []string
	for name := range exported {
		if !survivors[name] {
			orphans = append(orphans, name)
		}
	}
	sort.Strings(orphans)
	for _, name := range orphans {
		t.Errorf("msod.%s is named by no caller in %v and carried by no survivor's signature: delete it or give it a reason in facadeUnreached", name, facadeCallers)
	}
}

// signatureNames returns the unqualified exported identifiers in a
// function type: the facade's own names among its parameters and
// results.
func signatureNames(ft *ast.FuncType) []string {
	var names []string
	ast.Inspect(ft, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.SelectorExpr:
			return false // another package's name
		case *ast.Ident:
			if n.IsExported() {
				names = append(names, n.Name)
			}
		}
		return true
	})
	return names
}

// namedByCallers returns every X written as msod.X in facadeCallers.
func namedByCallers(t *testing.T) map[string]bool {
	t.Helper()
	ref := regexp.MustCompile(`\bmsod\.([A-Z]\w*)`)
	named := map[string]bool{}
	scan := func(path string) error {
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range ref.FindAllSubmatch(raw, -1) {
			named[string(m[1])] = true
		}
		return nil
	}
	for _, root := range facadeCallers {
		err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
			if err != nil || d.IsDir() {
				return err
			}
			if strings.HasSuffix(path, ".go") || strings.HasSuffix(path, ".md") {
				return scan(path)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return named
}
