package adi

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"msod/internal/bctx"
	"msod/internal/rbac"
)

// The churn vocabulary: more instances than eqCtxs, two- and
// three-component (whose slots outgrow the instance's own), opened and
// closed by exact names and by patterns, and users enough that a bucket
// one of them frees is taken by another.
var (
	churnUsers = []string{"u0", "u1", "u2", "u3", "u4", "u5"}
	churnCtxs  = func() []string {
		var out []string
		for p := range 4 {
			for s := range 4 {
				out = append(out, fmt.Sprintf("P=%d, S=%d", p, s))
			}
		}
		for p := range 2 {
			for s := range 4 {
				out = append(out, fmt.Sprintf("P=%d, S=%d, T=x", p, s))
			}
		}
		return out
	}()
	churnPatterns = append([]string{"", "P=*", "P=!", "P=1, S=*", "P=*, S=2", "P=!, S=!, T=*", "S=1", "P=9"}, churnCtxs...)
)

// churnOp draws one op: mostly records and closes, so instances open and
// close many times over a run.
func churnOp(r *rand.Rand, step int) Op {
	at := eqEpoch.Add(time.Duration(step) * time.Minute)
	user := rbac.UserID(churnUsers[r.Intn(len(churnUsers))])
	switch n := r.Intn(20); {
	case n < 10:
		var recs []Record
		for range 1 + r.Intn(3) {
			rc := rec(churnUsers[r.Intn(len(churnUsers))], eqRoles[r.Intn(len(eqRoles))],
				fmt.Sprintf("op%d", r.Intn(3)), "t", churnCtxs[r.Intn(len(churnCtxs))])
			rc.Time = at
			recs = append(recs, rc)
		}
		return Op{Kind: OpRecord, Records: recs}
	case n < 16:
		return Op{Kind: OpClose, Bound: bctx.MustParse(churnPatterns[r.Intn(len(churnPatterns))])}
	case n < 17:
		return Op{Kind: OpActivate, Bound: bctx.MustParse(churnCtxs[r.Intn(len(churnCtxs))]), Time: at}
	case n < 18:
		return Op{Kind: OpPurgeUser, User: user}
	case n < 19:
		return Op{Kind: OpPurgeBefore, Time: eqEpoch.Add(time.Duration(r.Intn(step+1)) * time.Minute)}
	default:
		return Op{Kind: OpRelease, User: user, Time: at}
	}
}

// render is the text of records read out of a store, to tell later
// whether anything the store reused changed them.
func render(recs []Record) string { return fmt.Sprint(recs) }

// readOut is records a caller read out of the store, and their text
// when it did.
type readOut struct {
	recs []Record
	text string
}

// TestChurnAgainstReference: thousands of instances open and close in
// a store whose names all hash into four chains, so every freed
// instance is reused in a chain beside others, and every freed bucket
// and comps list goes to another user or instance. After every op that
// removes anything, the store answers every query of every user over
// every pattern as internal/refmodel does, and the records read out
// (All, UserRecords) before each of the last purges are unchanged.
func TestChurnAgainstReference(t *testing.T) {
	patterns := make([]bctx.Name, len(churnPatterns))
	for i, p := range churnPatterns {
		patterns[i] = bctx.MustParse(p)
	}
	roles := []rbac.RoleName{"R0", "R1"}
	for seed := int64(1); seed <= 3; seed++ {
		r := rand.New(rand.NewSource(seed))
		s, ref := NewStore(), newReference()
		s.hashMask = 3
		var held []readOut
		closes := 0
		for step := 0; step < 2000; step++ {
			op := churnOp(r, step)
			if op.Kind != OpRecord && op.Kind != OpActivate {
				all := s.All()
				ur := s.UserRecords(rbac.UserID(churnUsers[step%len(churnUsers)]), bctx.Universal)
				held = append(held, readOut{all, render(all)}, readOut{ur, render(ur)})
				if len(held) > 16 {
					held = held[2:]
				}
			}
			g, err := Apply(s, op)
			w, werr := ref.apply(op)
			if err != nil || werr != nil || g.Added != w.Added || g.Removed != w.Removed || g.Activated != w.Activated {
				t.Fatalf("seed %d step %d: Apply(%+v) = %+v, %v; want %+v, %v", seed, step, op, g, err, w, werr)
			}
			if op.Kind == OpRecord || op.Kind == OpActivate {
				continue
			}
			if op.Kind == OpClose && g.Removed > 0 {
				closes++
			}
			if err := sameState(s, ref); err != nil {
				t.Fatalf("seed %d step %d after %v: %v", seed, step, op.Kind, err)
			}
			for _, p := range patterns {
				if g, err := s.ContextActive(p); err != nil || g != ref.ContextActive(p) {
					t.Fatalf("seed %d step %d: ContextActive(%q) = %v, %v", seed, step, p, g, err)
				}
				for _, u := range churnUsers {
					user := rbac.UserID(u)
					if g, w := s.UserRecords(user, p), ref.UserRecords(user, p); !sameSlice(g, w) {
						t.Fatalf("seed %d step %d: UserRecords(%q, %q) = %v, want %v", seed, step, u, p, g, w)
					}
					for _, role := range roles {
						want := 0
						for _, rc := range ref.UserRecords(user, p) {
							if rc.HasRole(role) {
								want++
							}
						}
						if g, _ := s.CountUserRole(user, p, role, 0); g != want {
							t.Fatalf("seed %d step %d: CountUserRole(%q, %q, %q) = %d, want %d", seed, step, u, p, role, g, want)
						}
					}
					perm := rbac.Permission{Operation: rbac.Operation(fmt.Sprintf("op%d", step%3)), Object: "t"}
					if g, _ := s.CountUserPrivilege(user, p, perm, 0); g != ref.CountUserPrivilege(user, p, perm) {
						t.Fatalf("seed %d step %d: CountUserPrivilege(%q, %q, %v) = %d", seed, step, u, p, perm, g)
					}
				}
			}
			for _, h := range held {
				if got := render(h.recs); got != h.text {
					t.Fatalf("seed %d step %d: records read out before a purge changed:\n%s\nwant\n%s", seed, step, got, h.text)
				}
			}
		}
		if closes < 200 {
			t.Fatalf("seed %d: %d closes removed records, want a churning run", seed, closes)
		}
	}
}

// TestReadOutRecordsOutliveReuse: the records All and UserRecords
// returned keep their user, context and roles after the purge that
// freed their bucket, instance and lists, and after other users'
// records in other instances took all three.
func TestReadOutRecordsOutliveReuse(t *testing.T) {
	s := NewStore()
	ctxs := []string{"TaxOffice=o1, taxRefundProcess=a", "TaxOffice=o1, taxRefundProcess=b, Step=2"}
	for _, ctx := range ctxs {
		if err := s.Append(rec("alice", "Clerk", "prepareCheck", "check", ctx), rec("bob", "Manager", "approveCheck", "check", ctx)); err != nil {
			t.Fatal(err)
		}
	}
	all, mine := s.All(), s.UserRecords("alice", bctx.Universal)
	type fields struct {
		user  rbac.UserID
		ctx   string
		roles string
	}
	fieldsOf := func(recs []Record) []fields {
		var out []fields
		for _, r := range recs {
			out = append(out, fields{r.User, r.Context.String(), fmt.Sprint(r.Roles)})
		}
		return out
	}
	wantAll, wantMine := fieldsOf(all), fieldsOf(mine)
	if n, _ := s.PurgeContext(bctx.MustParse("TaxOffice=o1")); n != 4 {
		t.Fatalf("purged %d records, want 4", n)
	}
	for i, ctx := range []string{"Branch=York, Period=2006", "Dept=d1, Project=q, Step=9"} {
		if err := s.Append(rec(fmt.Sprintf("carol%d", i), "Teller", "HandleCash", "till", ctx),
			rec(fmt.Sprintf("dave%d", i), "Auditor", "Audit", "ledger", ctx)); err != nil {
			t.Fatal(err)
		}
	}
	if got := fieldsOf(all); fmt.Sprint(got) != fmt.Sprint(wantAll) {
		t.Errorf("All's records became %v, want %v", got, wantAll)
	}
	if got := fieldsOf(mine); fmt.Sprint(got) != fmt.Sprint(wantMine) {
		t.Errorf("UserRecords' records became %v, want %v", got, wantMine)
	}
}

// TestConcurrentChurn: readers query the store and read every field of
// the records it hands out while a writer opens and closes instances of
// users that hold nothing else, so what the readers hold is what the
// writer frees and reuses. Run under -race.
func TestConcurrentChurn(t *testing.T) {
	s := NewStore()
	if err := s.Append(rec("keeper", "Teller", "HandleCash", "till", "Branch=York, Period=2006")); err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	var wg sync.WaitGroup
	for g := range 3 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-done:
					return
				default:
				}
				user := rbac.UserID(fmt.Sprintf("c%d", (i+g)%4))
				for _, r := range append(s.All(), s.UserRecords(user, bctx.Universal)...) {
					_ = r.String()
				}
				for _, n := range s.Instances() {
					_ = n.String()
				}
				if _, err := s.ContextActive(bctx.MustParse("TaxOffice=o1, taxRefundProcess=*")); err != nil {
					t.Error(err)
					return
				}
				if _, err := s.CountUserRole(user, bctx.Universal, "Clerk", 0); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	for i := range 2000 {
		ctx := fmt.Sprintf("TaxOffice=o1, taxRefundProcess=x%d", i%7)
		if err := s.Append(rec(fmt.Sprintf("c%d", i%4), "Clerk", "prepareCheck", "check", ctx),
			rec(fmt.Sprintf("c%d", (i+1)%4), "Manager", "approveCheck", "check", ctx)); err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			if _, err := s.PurgeContext(bctx.MustParse("TaxOffice=o1, taxRefundProcess=*")); err != nil {
				t.Fatal(err)
			}
		}
	}
	close(done)
	wg.Wait()
	if n, _ := s.CountUserRole("keeper", bctx.Universal, "Teller", 0); n != 1 {
		t.Fatalf("keeper holds %d records, want 1", n)
	}
}
