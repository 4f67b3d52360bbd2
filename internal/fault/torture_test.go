package fault_test

import (
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"testing"
	"time"

	"msod/internal/adi"
	"msod/internal/audit"
	"msod/internal/bctx"
	"msod/internal/fault"
	"msod/internal/fsx"
	"msod/internal/pdp"
	"msod/internal/policy"
	"msod/internal/rbac"
	"msod/internal/refmodel"
)

// The crash-recovery torture: a PDP over the durable store and audit
// trail, both on one fault-injected filesystem, is driven through a
// seeded workload until a crash cuts power at a random disk operation.
// The surviving bytes are reopened with the plain filesystem — the
// restart after the outage — and the recovered PDP is checked against
// the reference model (internal/refmodel) as the shadow, which saw
// exactly the acknowledged decisions:
//
//   - the recovered retained ADI holds exactly the acknowledged
//     grants' records, record for record (no lost acks, no phantom
//     half-writes), and
//   - every probe request gets the same answer from the recovered PDP
//     and the model — in particular, nothing the shadow denies is
//     granted after recovery (zero false grants), and
//   - the audit chain verifies, or is a clean truncation that the
//     next writer repairs to a verifying chain.
//
// The workload avoids last-step operations: a last step purges the
// context in a WAL entry separate from the decision's record, and a
// crash between the two is a (documented) atomicity gap of the
// purge+append pair, not of single-entry commits. The durable store
// commits each Append as one sealed WAL line, so the invariant here
// is exact equality. (The policy has a last step, archiveCase, for the
// elastic resharding torture, which shares it; genWorkload never draws
// it.)

const torturePolicyXML = `
<RBACPolicy id="torture-1">
  <RoleList>
    <Role value="Clerk"/>
    <Role value="Manager"/>
  </RoleList>
  <RoleAssignmentPolicy>
    <Assignment soa="gov.tax.example" role="Clerk"/>
    <Assignment soa="gov.tax.example" role="Manager"/>
  </RoleAssignmentPolicy>
  <TargetAccessPolicy>
    <Grant role="Clerk" operation="prepareCheck" target="http://www.myTaxOffice.com/Check"/>
    <Grant role="Manager" operation="approveCheck" target="http://www.myTaxOffice.com/Check"/>
    <Grant role="Manager" operation="combineResults" target="http://secret.location.com/results"/>
    <Grant role="Manager" operation="archiveCase" target="http://secret.location.com/archive"/>
  </TargetAccessPolicy>
  <MSoDPolicySet>
    <MSoDPolicy BusinessContext="TaxOffice=!, taxRefundProcess=!">
      <FirstStep operation="prepareCheck" targetURI="http://www.myTaxOffice.com/Check"/>
      <LastStep operation="archiveCase" targetURI="http://secret.location.com/archive"/>
      <MMEP ForbiddenCardinality="2">
        <Operation value="prepareCheck" target="http://www.myTaxOffice.com/Check"/>
        <Operation value="approveCheck" target="http://www.myTaxOffice.com/Check"/>
      </MMEP>
      <MMEP ForbiddenCardinality="2">
        <Operation value="approveCheck" target="http://www.myTaxOffice.com/Check"/>
        <Operation value="combineResults" target="http://secret.location.com/results"/>
      </MMEP>
    </MSoDPolicy>
  </MSoDPolicySet>
</RBACPolicy>`

// tortureStep is one workload request plus the role that issues it.
type tortureStep struct {
	user rbac.UserID
	role rbac.RoleName
	op   rbac.Operation
	tgt  rbac.Object
	inst string
}

func (s tortureStep) request() pdp.Request {
	return pdp.Request{
		User:      s.user,
		Roles:     []rbac.RoleName{s.role},
		Operation: s.op,
		Target:    s.tgt,
		Context:   bctx.MustParse("TaxOffice=Leeds, taxRefundProcess=" + s.inst),
	}
}

// shadowed is the step as the reference model takes it. Every step's
// role is assigned and granted its operation, so the RBAC phase never
// denies one and the model's MSoD decision is the whole answer.
func (s tortureStep) shadowed() refmodel.Request {
	r := s.request()
	return refmodel.Request{User: r.User, Roles: r.Roles, Operation: r.Operation, Target: r.Target, Context: r.Context}
}

// newShadow is the reference model of the torture policy.
func newShadow(t *testing.T, pol *policy.RBACPolicy) *refmodel.Model {
	t.Helper()
	shadow, err := refmodel.New(pol.MSoD)
	if err != nil {
		t.Fatal(err)
	}
	return shadow
}

// sameRetained fails unless the store holds the shadow's records,
// record for record in the order both list them.
func sameRetained(t *testing.T, when string, store *adi.DurableStore, shadow *refmodel.Model) {
	t.Helper()
	got, want := store.All(), shadow.All()
	if len(got) != len(want) {
		t.Fatalf("%s: %d retained-ADI records, shadow has %d", when, len(got), len(want))
	}
	for i := range got {
		if g, w := got[i].String(), adi.Record(want[i]).String(); g != w {
			t.Fatalf("%s: record %d is %s, shadow's is %s", when, i, g, w)
		}
	}
}

// agrees reports whether a PDP's answer is the model's: the same
// effect, and a denial only from the MSoD phase.
func agrees(d pdp.Decision, m refmodel.Decision) bool {
	return d.Allowed == m.Grant && (d.Allowed || d.Phase == pdp.PhaseMSoD)
}

// genWorkload draws n seeded steps over a small population of clerks
// and managers and four process instances — enough collisions that
// MMEP denials, repeat grants and cross-context history all occur.
func genWorkload(rng *rand.Rand, n int) []tortureStep {
	clerks := []rbac.UserID{"c0", "c1", "c2", "c3"}
	managers := []rbac.UserID{"m0", "m1", "m2"}
	insts := []string{"p0", "p1", "p2", "p3"}
	steps := make([]tortureStep, n)
	for i := range steps {
		inst := insts[rng.Intn(len(insts))]
		switch rng.Intn(3) {
		case 0:
			steps[i] = tortureStep{
				user: clerks[rng.Intn(len(clerks))], role: "Clerk",
				op: "prepareCheck", tgt: "http://www.myTaxOffice.com/Check", inst: inst,
			}
		case 1:
			steps[i] = tortureStep{
				user: managers[rng.Intn(len(managers))], role: "Manager",
				op: "approveCheck", tgt: "http://www.myTaxOffice.com/Check", inst: inst,
			}
		default:
			steps[i] = tortureStep{
				user: managers[rng.Intn(len(managers))], role: "Manager",
				op: "combineResults", tgt: "http://secret.location.com/results", inst: inst,
			}
		}
	}
	return steps
}

// probeSteps is the full user x operation x instance grid used to
// compare two PDPs advisory-for-advisory.
func probeSteps() []tortureStep {
	return probeGrid([]rbac.UserID{"c0", "c1", "c2", "c3"}, []rbac.UserID{"m0", "m1", "m2"})
}

// probeGrid is the grid over the given clerks and managers.
func probeGrid(clerks, managers []rbac.UserID) []tortureStep {
	var probes []tortureStep
	for _, inst := range []string{"p0", "p1", "p2", "p3"} {
		for _, c := range clerks {
			probes = append(probes, tortureStep{
				user: c, role: "Clerk",
				op: "prepareCheck", tgt: "http://www.myTaxOffice.com/Check", inst: inst,
			})
		}
		for _, m := range managers {
			probes = append(probes,
				tortureStep{user: m, role: "Manager", op: "approveCheck",
					tgt: "http://www.myTaxOffice.com/Check", inst: inst},
				tortureStep{user: m, role: "Manager", op: "combineResults",
					tgt: "http://secret.location.com/results", inst: inst})
		}
	}
	return probes
}

func TestCrashRecoveryTorture(t *testing.T) {
	seeds := 60
	if testing.Short() {
		seeds = 8
	}
	for seed := 1; seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			tortureOne(t, int64(seed))
		})
	}
}

func tortureOne(t *testing.T, seed int64) {
	pol, err := policy.ParseRBACPolicy([]byte(torturePolicyXML))
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	adiDir := filepath.Join(dir, "adi")
	trailDir := filepath.Join(dir, "trail")
	secret := []byte("torture-secret")
	trailKey := []byte("torture-trail-key")
	clock := func() time.Time { return time.Unix(1_700_000_000, 0) }

	ffs := fault.NewFS(fsx.OS, seed)
	ds, err := adi.OpenDurableFS(adiDir, secret, true, ffs)
	if err != nil {
		t.Fatal(err)
	}
	trail, err := audit.NewWriterFS(trailDir, trailKey, 16, ffs)
	if err != nil {
		t.Fatal(err)
	}
	victim, err := pdp.New(pdp.Config{Policy: pol, Store: ds, Trail: trail, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	// The shadow model sees exactly the acknowledged decisions, in
	// memory no fault can touch.
	shadow := newShadow(t, pol)

	// Arm the crash at a random mutating disk operation ahead — it may
	// land on a WAL write, flush, fsync or a trail append, whichever
	// the workload reaches.
	ffs.InjectAt(ffs.Ops()+1+rng.Intn(80), fault.Crash)

	steps := genWorkload(rng, 120)
	resume := len(steps)
	for i, step := range steps {
		vd, verr := victim.Decide(step.request())
		if verr != nil {
			if !ffs.Crashed() {
				t.Fatalf("step %d: decision failed without a crash: %v", i, verr)
			}
			if !errors.Is(verr, adi.ErrWriteFailed) {
				t.Fatalf("step %d: post-crash store failure not ErrWriteFailed: %v", i, verr)
			}
			resume = i
			break
		}
		// Acknowledged: the shadow must agree and absorb the same step.
		sd, serr := shadow.Evaluate(step.shadowed(), clock())
		if serr != nil {
			t.Fatalf("step %d: shadow decision failed: %v", i, serr)
		}
		if !agrees(vd, sd) {
			t.Fatalf("step %d: victim %v/%s, shadow grant %v (%s)", i, vd.Allowed, vd.Phase, sd.Grant, sd.Rule)
		}
	}
	// A crash during a trail append is swallowed (the decision is
	// served, msod_audit_trail_errors_total counts it) and denials
	// never touch the store, so the loop can finish with the disk
	// already dead. Either way the simulated machine is now off.
	trail.Close()
	ds.Close()
	if !ffs.Crashed() {
		ffs.CrashNow()
	}

	// Power restored: reopen the surviving bytes with the real
	// filesystem, as the restarted daemon would.
	recovered, err := adi.OpenDurable(adiDir, secret, true)
	if err != nil {
		t.Fatalf("recovery open failed: %v", err)
	}
	defer recovered.Close()

	sameRetained(t, "after recovery (acked writes lost or phantom writes surfaced)", recovered, shadow)
	recPDP, err := pdp.New(pdp.Config{Policy: pol, Store: recovered, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}

	// Probe the full request grid advisory-for-advisory: any request
	// the shadow denies but the recovered PDP grants is a false grant.
	for _, probe := range probeSteps() {
		rd, rerr := recPDP.Advise(probe.request())
		sd, serr := shadow.Peek(probe.shadowed())
		if rerr != nil || serr != nil {
			t.Fatalf("probe %+v: advise errors %v / %v", probe, rerr, serr)
		}
		if !agrees(rd, sd) {
			t.Fatalf("probe %+v: recovered %v/%s, shadow grant %v (%s) after crash recovery",
				probe, rd.Allowed, rd.Phase, sd.Grant, sd.Rule)
		}
	}

	// Resume the interrupted workload (the crashed request first — the
	// PEP's retry) on the recovered PDP; it must track the shadow.
	for i, step := range steps[resume:] {
		rd, rerr := recPDP.Decide(step.request())
		sd, serr := shadow.Evaluate(step.shadowed(), clock())
		if rerr != nil || serr != nil {
			t.Fatalf("resumed step %d: decide errors %v / %v", i, rerr, serr)
		}
		if !agrees(rd, sd) {
			t.Fatalf("resumed step %d: recovered %v/%s, shadow grant %v (%s)",
				i, rd.Allowed, rd.Phase, sd.Grant, sd.Rule)
		}
	}

	sameRetained(t, "after the resumed workload", recovered, shadow)

	// The audit chain either verifies or was torn mid-entry by the
	// crash; a torn tail must be repaired by the next writer so the
	// chain verifies again.
	verifyTrail := func() error {
		rdr, err := audit.NewReader(trailDir, trailKey)
		if err != nil {
			return err
		}
		_, err = rdr.Verify()
		return err
	}
	if err := verifyTrail(); err != nil {
		if !errors.Is(err, audit.ErrTruncated) {
			t.Fatalf("audit chain after crash: %v (only clean truncation is acceptable)", err)
		}
		w, err := audit.NewWriter(trailDir, trailKey, 16)
		if err != nil {
			t.Fatalf("reopen trail for repair: %v", err)
		}
		w.Close()
		if err := verifyTrail(); err != nil {
			t.Fatalf("audit chain still broken after writer repair: %v", err)
		}
	}
}
