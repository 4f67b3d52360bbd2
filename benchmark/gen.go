package main

import (
	"fmt"
	"math/rand"
	"strings"
)

// Vocabulary of the bench-enterprise policy. The two live policies are
// the paper's: Example 1 (bank, MMER across branches per period) and
// Example 2 (tax refund, MMEP per process instance).
const (
	roleTeller  = "Teller"
	roleAuditor = "Auditor"
	roleClerk   = "Clerk"
	roleManager = "Manager"

	benchSOA = "bench-soa"

	// The population, shaped after "ARBAC Policy for a Large
	// Multi-National Bank": thousands of users, tens of policies.
	fillerPolicies = 30 // MSoD policies beside the two live ones; they match no request
	bankUsers      = 4096
	bankBranches   = 64
	bankPeriodLen  = 200 // requests of a period before its CommitAudit
	bankStaff      = 24  // users working one period
	taxClerks      = 1024
	taxManagers    = 1024
	taxOffices     = 16

	bankAuditorShare  = 0.3  // of a period's requests present Auditor
	bankRBACDenyShare = 0.01 // are refused by the target access policy
	taxViolationShare = 0.1  // of processes carry one injected MMEP violation

	taxCheckURL   = "http://www.myTaxOffice.com/Check"
	taxAuditURL   = "http://secret.location.com/audit"
	taxResultsURL = "http://secret.location.com/results"
)

var (
	privHandleCash  = privilege{"HandleCash", "till"}
	privAudit       = privilege{"Audit", "ledger"}
	privCommitAudit = privilege{"CommitAudit", "audit"}
	privPrepare     = privilege{"prepareCheck", taxCheckURL}
	privApprove     = privilege{"approve/disapproveCheck", taxCheckURL}
	privCombine     = privilege{"combineResults", taxResultsURL}
	privConfirm     = privilege{"confirmCheck", taxAuditURL}

	// grants is the target access policy, shared by the generated XML
	// and the oracle.
	grants = []struct {
		role string
		priv privilege
	}{
		{roleTeller, privHandleCash},
		{roleAuditor, privAudit},
		{roleAuditor, privCommitAudit},
		{roleClerk, privPrepare},
		{roleClerk, privConfirm},
		{roleManager, privApprove},
		{roleManager, privCombine},
	}

	bankOraclePolicy = oraclePolicy{
		last:  &privCommitAudit,
		rules: []oracleRule{{roles: []string{roleTeller, roleAuditor}, m: 2}},
	}
	taxOraclePolicy = oraclePolicy{
		first: &privPrepare,
		last:  &privConfirm,
		rules: []oracleRule{
			{privs: []privilege{privPrepare, privConfirm}, m: 2},
			{privs: []privilege{privApprove, privApprove, privCombine}, m: 2},
		},
	}
)

func newOracle() *oracle {
	o := &oracle{permits: map[string][]privilege{}}
	for _, g := range grants {
		o.permits[g.role] = append(o.permits[g.role], g.priv)
	}
	return o
}

// policyXML renders the bench-enterprise RBACPolicy document: the bank
// and tax-refund policies plus filler policies that never match a
// request but are walked by step 1 of every decision.
func policyXML() []byte {
	var b strings.Builder
	b.WriteString("<RBACPolicy id=\"bench-enterprise\">\n  <RoleList>\n")
	roles := []string{roleTeller, roleAuditor, roleClerk, roleManager, "Engineer", "Reviewer"}
	for _, r := range roles {
		fmt.Fprintf(&b, "    <Role value=%q/>\n", r)
	}
	b.WriteString("  </RoleList>\n  <RoleAssignmentPolicy>\n")
	for _, r := range roles[:4] {
		fmt.Fprintf(&b, "    <Assignment soa=%q role=%q/>\n", benchSOA, r)
	}
	b.WriteString("  </RoleAssignmentPolicy>\n  <TargetAccessPolicy>\n")
	for _, g := range grants {
		fmt.Fprintf(&b, "    <Grant role=%q operation=%q target=%q/>\n", g.role, g.priv.operation, g.priv.target)
	}
	b.WriteString("  </TargetAccessPolicy>\n  <MSoDPolicySet>\n")
	fmt.Fprintf(&b, `    <MSoDPolicy BusinessContext="Branch=*, Period=!">
      <LastStep operation=%q targetURI=%q/>
      <MMER ForbiddenCardinality="2">
        <Role type="employee" value=%q/>
        <Role type="employee" value=%q/>
      </MMER>
    </MSoDPolicy>
`, privCommitAudit.operation, privCommitAudit.target, roleTeller, roleAuditor)
	fmt.Fprintf(&b, `    <MSoDPolicy BusinessContext="TaxOffice=!, taxRefundProcess=!">
      <FirstStep operation=%q targetURI=%q/>
      <LastStep operation=%q targetURI=%q/>
      <MMEP ForbiddenCardinality="2">
        <Operation value=%q target=%q/>
        <Operation value=%q target=%q/>
      </MMEP>
      <MMEP ForbiddenCardinality="2">
        <Operation value=%q target=%q/>
        <Operation value=%q target=%q/>
        <Operation value=%q target=%q/>
      </MMEP>
    </MSoDPolicy>
`, privPrepare.operation, privPrepare.target, privConfirm.operation, privConfirm.target,
		privPrepare.operation, privPrepare.target, privConfirm.operation, privConfirm.target,
		privApprove.operation, privApprove.target, privApprove.operation, privApprove.target,
		privCombine.operation, privCombine.target)
	for i := 0; i < fillerPolicies; i++ {
		fmt.Fprintf(&b, `    <MSoDPolicy BusinessContext="Dept=d%02d, Project=!">
      <MMER ForbiddenCardinality="2">
        <Role type="employee" value="Engineer"/>
        <Role type="employee" value="Reviewer"/>
      </MMER>
    </MSoDPolicy>
`, i)
	}
	b.WriteString("  </MSoDPolicySet>\n</RBACPolicy>\n")
	return []byte(b.String())
}

type family uint8

const (
	familyBank family = iota
	familyTax
)

// contextTypes are the two component types of each family's context
// name; the second is the per-instance ("!") component.
var contextTypes = [2][2]string{
	familyBank: {"Branch", "Period"},
	familyTax:  {"TaxOffice", "taxRefundProcess"},
}

// Latency classes a request is reported under.
const (
	classFirstStep = 1 << iota
	classLastStep
)

// op is one generated request with the oracle's verdict stamped on it.
type op struct {
	user  string
	role  string
	priv  privilege
	place string // value of the first context component (branch or office)
	class uint8
	// cred, when set, is the user's signed role credential in wire
	// form; the request then carries it in place of user and roles.
	cred []byte

	allowed bool
	phase   string
	// retained is how many records the oracle holds for the instance
	// once this request has been answered.
	retained int
}

// template is the script of one context instance: a bank period closed
// by its CommitAudit, or one tax-refund process. Instances played from
// the same template differ only in the instance ID, which never
// repeats, so the verdicts carry over.
type template struct{ ops []op }

// traffic is everything the seed decides.
type traffic struct {
	bank []template
	tax  []template
	// pickBank says, cyclically, whether a client's next request comes
	// from its open bank period or its open tax process.
	pickBank []bool
}

func numbered(prefix string, n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("%s%04d", prefix, i)
	}
	return out
}

// generateTraffic builds the templates from the seed alone and stamps
// every op by running the oracle over each instance in order.
func generateTraffic(size sizing, bankShare float64, seed int64) *traffic {
	rng := rand.New(rand.NewSource(seed))
	tr := &traffic{}
	orc := newOracle()

	stamp := func(t *template, pol *oraclePolicy, o op) {
		o.allowed, o.phase = orc.decide(pol, "x", oracleRequest{user: o.user, roles: []string{o.role}, priv: o.priv})
		o.retained = orc.retainedIn("x")
		t.ops = append(t.ops, o)
	}

	users := numbered("u", bankUsers)
	branches := numbered("b", bankBranches)
	// Mild skew: the head of the population staffs more periods than
	// the tail, but no user carries more than a few percent of traffic.
	zipf := rand.NewZipf(rng, 1.05, 8, bankUsers-1)
	for i := 0; i < size.bankTemplates; i++ {
		var t template
		staff := make([]string, 0, bankStaff)
		seen := map[string]bool{}
		for len(staff) < bankStaff {
			if u := users[zipf.Uint64()]; !seen[u] {
				seen[u] = true
				staff = append(staff, u)
			}
		}
		for j := 0; j < bankPeriodLen; j++ {
			o := op{user: staff[rng.Intn(len(staff))], place: branches[rng.Intn(len(branches))]}
			o.role, o.priv = roleTeller, privHandleCash
			if rng.Float64() < bankAuditorShare {
				o.role, o.priv = roleAuditor, privAudit
			}
			if rng.Float64() < bankRBACDenyShare {
				// A teller asking to audit: refused by the target access
				// policy before MSoD is consulted.
				o.role, o.priv = roleTeller, privAudit
			}
			stamp(&t, &bankOraclePolicy, o)
		}
		// A dedicated auditor closes the period; it never handles cash.
		stamp(&t, &bankOraclePolicy, op{
			user: fmt.Sprintf("aud%03d", i), role: roleAuditor, priv: privCommitAudit,
			place: branches[rng.Intn(len(branches))], class: classLastStep,
		})
		tr.bank = append(tr.bank, t)
	}

	clerks := numbered("c", taxClerks)
	managers := numbered("m", taxManagers)
	offices := numbered("o", taxOffices)
	distinct := func(pool []string, n int) []string {
		out := make([]string, 0, n)
		for len(out) < n {
			if c := pool[rng.Intn(len(pool))]; !contains(out, c) {
				out = append(out, c)
			}
		}
		return out
	}
	for i := 0; i < size.taxTemplates; i++ {
		var t template
		office := offices[rng.Intn(len(offices))]
		c := distinct(clerks, 2)
		m := distinct(managers, 3)
		violation := 0
		if rng.Float64() < taxViolationShare {
			violation = 1 + rng.Intn(3)
		}
		step := func(user, role string, pv privilege, class uint8) {
			stamp(&t, &taxOraclePolicy, op{user: user, role: role, priv: pv, place: office, class: class})
		}
		step(c[0], roleClerk, privPrepare, classFirstStep)
		step(m[0], roleManager, privApprove, 0)
		if violation == 1 {
			step(m[0], roleManager, privApprove, 0) // second approval by the same manager
		}
		step(m[1], roleManager, privApprove, 0)
		if violation == 2 {
			step(m[0], roleManager, privCombine, 0) // an approver combining the results
		}
		step(m[2], roleManager, privCombine, 0)
		if violation == 3 {
			step(c[0], roleClerk, privConfirm, 0) // the preparer confirming the check
		}
		step(c[1], roleClerk, privConfirm, classLastStep)
		tr.tax = append(tr.tax, t)
	}

	tr.pickBank = make([]bool, 4096)
	for i := range tr.pickBank {
		tr.pickBank[i] = rng.Float64() < bankShare
	}
	return tr
}

// cursor walks one client's share of the stream: one open bank period
// and one open tax process at a time, interleaved by pickBank. Instance
// IDs carry the client number and a serial, so they never repeat within
// a run and no two clients ever share an instance.
type cursor struct {
	tr     *traffic
	client int
	pick   int
	open   [2]struct {
		tmpl   int    // index of the template being played
		next   int    // next op of it
		serial int    // instances of this family opened so far
		id     string // instance ID in use
	}
}

func newCursor(tr *traffic, client, clients int) *cursor {
	c := &cursor{tr: tr, client: client}
	// Clients start at different templates so they do not move in step.
	c.open[familyBank].tmpl = client * len(tr.bank) / clients
	c.open[familyTax].tmpl = client * len(tr.tax) / clients
	c.pick = client * len(tr.pickBank) / clients
	for f := range c.open {
		c.open[f].id = c.instanceID(family(f))
	}
	return c
}

func (c *cursor) instanceID(f family) string {
	return fmt.Sprintf("c%d-%d", c.client, c.open[f].serial)
}

func (c *cursor) templates(f family) []template {
	if f == familyBank {
		return c.tr.bank
	}
	return c.tr.tax
}

// next returns the next request of the client's stream and the ID of
// the instance it belongs to.
func (c *cursor) next() (o *op, f family, id string) {
	f = familyTax
	if c.tr.pickBank[c.pick] {
		f = familyBank
	}
	if c.pick++; c.pick == len(c.tr.pickBank) {
		c.pick = 0
	}
	st := &c.open[f]
	tmpls := c.templates(f)
	o, id = &tmpls[st.tmpl].ops[st.next], st.id
	if st.next++; st.next == len(tmpls[st.tmpl].ops) {
		st.next = 0
		st.tmpl = (st.tmpl + 1) % len(tmpls)
		st.serial++
		st.id = c.instanceID(f)
	}
	return o, f, id
}

// expectRetained is how many records a single PDP holds for the
// client's open instances after the last request it was handed.
func (c *cursor) expectRetained() int {
	n := 0
	for f := range c.open {
		if st := c.open[f]; st.next > 0 {
			n += c.templates(family(f))[st.tmpl].ops[st.next-1].retained
		}
	}
	return n
}
