package core

import (
	"context"
	"fmt"
	"hash/maphash"
	"math"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"msod/internal/adi"
	"msod/internal/bctx"
	"msod/internal/rbac"
)

// Request is the MSoD-relevant slice of an access control decision
// request (§4.1): the user's stable ID, the roles activated for this
// request, the operation and target, and the business context instance.
type Request struct {
	// User is mandatory for MSoD (§4.1: "the user's ID becomes
	// mandatory so that the PDP can link together the user's sessions").
	User rbac.UserID
	// Roles are the user's activated roles for this request.
	Roles []rbac.RoleName
	// Operation and Target identify the requested privilege.
	Operation rbac.Operation
	Target    rbac.Object
	// Context is the current business context instance, supplied by the
	// PEP with every request.
	Context bctx.Name
}

// Validate checks the request can be evaluated.
func (r Request) Validate() error {
	if r.User == "" {
		return fmt.Errorf("core: request has empty user ID")
	}
	if !r.Context.IsInstance() {
		return fmt.Errorf("core: request context %q is not an instance", r.Context)
	}
	return nil
}

// Effect is the outcome of an MSoD evaluation. It is a byte so that
// Decision stays in one size class (see Decision).
type Effect uint8

const (
	// Grant means no MSoD constraint was violated; the decision has been
	// recorded in the retained ADI where applicable.
	Grant Effect = iota
	// Deny means a constraint was violated; the retained ADI is
	// unchanged.
	Deny
)

// String renders the effect.
func (e Effect) String() string {
	if e == Grant {
		return "grant"
	}
	return "deny"
}

// Denial explains which constraint denied a request. It is values: the
// engine builds no text for it, and Error renders it only when someone
// reads it — for a shared denial (see boundSlot.share), once, for every
// reader. Like the Decision it lives in, it is read-only: a caller that
// wants a changed one copies it first (msodvet's decisionro analyzer
// flags a write through a *Denial outside this package), and a copy
// renders its own text.
type Denial struct {
	// PolicyContext is the policy's (unbound) business context.
	PolicyContext bctx.Name
	// BoundContext is the context after "!" binding to the request
	// instance — the scope in which the conflict was found.
	BoundContext bctx.Name
	// Rule identifies the violated constraint: "MMER[i]" or "MMEP[i]".
	// Its kind says what Held counts.
	Rule string
	// Held is the conflict count the algorithm found in the retained
	// history (conflicting roles already held, or conflicting privilege
	// positions already exercised) — the k that tripped the constraint.
	Held int
	// Cardinality is the rule's forbidden cardinality m.
	Cardinality int
	// shared is the object a shared denial lives in, which keeps its
	// text once read; nil for every other denial.
	shared *sharedDenial
}

// Error is the denial's text; Denial satisfies error so PEPs can
// surface it. It renders the text in one allocation unless quoting
// lengthens a context — a shared denial on its first reading only, and
// every later reading of it allocates nothing; a copy of a shared
// denial renders its own. The
// text names the rule, both contexts and k against m, and nothing else
// of the request: the user, roles, operation and target are the
// caller's already, and quoting them would make the text as long as the
// request.
func (d *Denial) Error() string {
	if s := d.shared; s != nil && d == &s.denial {
		s.once.Do(func() { s.text = s.denial.render() })
		return s.text
	}
	return d.render()
}

// render writes the denial's text.
func (d *Denial) render() string {
	verb, counted := "holds ", " conflicting role(s)"
	if strings.HasPrefix(d.Rule, "MMEP") {
		verb, counted = "exercised ", " conflicting privilege(s)"
	}
	var t text
	t.Grow(len(deniedText) + len(d.Rule) + nameLen(d.PolicyContext) + nameLen(d.BoundContext) +
		len(verb) + intLen(d.Held) + len(counted) + intLen(d.Cardinality))
	t.WriteString("msod: denied by ")
	t.WriteString(d.Rule)
	t.WriteString(" of policy ")
	t.quoteName(d.PolicyContext)
	t.WriteString(" (bound ")
	t.quoteName(d.BoundContext)
	t.WriteString("): the user already ")
	t.WriteString(verb)
	t.int(d.Held)
	t.WriteString(counted)
	t.WriteString(" in this context (forbidden cardinality ")
	t.int(d.Cardinality)
	t.WriteByte(')')
	return t.String()
}

// deniedText is what Error writes around its operands.
const deniedText = "msod: denied by  of policy \"\" (bound \"\"): the user already  in this context (forbidden cardinality )"

// text builds a denial's Error in one buffer: quoteName and int write
// what fmt's %q and %d would, without boxing the operands or rendering a
// name first.
type text struct{ strings.Builder }

// quoteName writes n's text quoted, one component at a time: a name's
// separators are ASCII, so quoting the pieces is quoting the whole.
func (t *text) quoteName(n bctx.Name) {
	t.WriteByte('"')
	for i := range n.Len() {
		c := n.At(i)
		if i > 0 {
			t.WriteString(", ")
		}
		t.escape(c.Type)
		t.WriteByte('=')
		t.escape(c.Value)
	}
	t.WriteByte('"')
}

// escape writes s as %q would between its quotes.
func (t *text) escape(s string) {
	var buf [64]byte // on the stack; longer strings fall back to the heap
	q := strconv.AppendQuote(buf[:0], s)
	t.Write(q[1 : len(q)-1])
}

// nameLen is the length of n's text.
func nameLen(n bctx.Name) int {
	size := 0
	for i := range n.Len() {
		if i > 0 {
			size += len(", ")
		}
		c := n.At(i)
		size += len(c.Type) + len("=") + len(c.Value)
	}
	return size
}

func (t *text) int(n int) {
	var buf [20]byte
	t.Write(strconv.AppendInt(buf[:0], int64(n), 10))
}

// intLen is the length of n's decimal text.
func intLen(n int) int {
	var buf [20]byte
	return len(strconv.AppendInt(buf[:0], int64(n), 10))
}

// Decision is the result of evaluating a request against the MSoD policy
// set, and the one object an evaluation returns. It is read-only: the
// engine may hand the same object to many callers, so a caller that
// wants to change one copies it first (msodvet's decisionro analyzer
// flags a write through a *Decision or a *Denial outside this package).
//
// A plain grant — one that started and closed nothing, purged nothing,
// and whose counts are within plainGrants' bounds — is an entry of that
// table, shared by every evaluation with the same counts: no allocation.
// A denial in a mixed policy's bound instance is the instance's shared
// denial when it has the same rule, k, m and matched policies as the
// instance's first: the first boxes it, and every later one allocates
// nothing (see boundSlot.share).
// Every other decision is its one allocation, sized to its shape (see
// box). A plain grant outside the table is the Decision alone, 56 bytes.
// A denial is the Decision with its Denial beside it, which Denial
// points at; a grant that started or closed instances is the Decision
// with an array of exactly their names beside it, which bounds slices.
// Each shape is held to a size class no larger than the separate
// allocations it replaced (TestDecisionSize): that is why Effect is a
// byte, Recorded and Purged are 32 bits, and the started and terminated
// instances share one slice.
type Decision struct {
	Effect Effect
	// split divides bounds: the instances the grant started come first,
	// the ones it terminated after them.
	split uint32
	// Denial is set when Effect is Deny. It points into the decision's
	// own object.
	Denial *Denial
	// MatchedPolicies counts how many policies' contexts matched the
	// request (diagnostics; 0 means MSoD did not apply).
	MatchedPolicies int
	// Recorded counts retained-ADI records written for a grant.
	Recorded int32
	// Purged counts retained-ADI records deleted because the request was
	// a granted last step. Both counts saturate at math.MaxInt32.
	Purged int32
	bounds []bctx.Name
}

// Activated lists the bound context instances whose FirstStep this grant
// was, for FirstStep-gated policies: the opening record committed, or —
// the instance was already running on this node — the step was granted
// in it. Distributed deployments need it: §4.2 step 4 skips recording
// while a context has no local history UNLESS the operation is the
// first step, so a PDP holding a slice of the user population must be
// told when some OTHER node saw the first step — otherwise its users'
// operations in the now-running instance pass unrecorded and a later
// k-of-m check under-counts (a false grant). A first step in a running
// instance is reported too because "running here" proves nothing about
// the other nodes: this node may hold leftovers of an instance that
// ended everywhere else (it missed the close, see Closed), and then this
// first step is what starts the next one for all of them. Telling a
// node that already knows is a no-op there. Policies without a
// FirstStep never appear here: their opening branch matches every
// operation, so each node activates independently without losing
// records.
func (d *Decision) Activated() []bctx.Name { return d.bounds[:d.split:d.split] }

// Closed lists the bound context instances this grant terminated: the
// request was the granted last step of their policy and step 7 purged
// them here. A PDP holding a slice of the user population purged only
// its own users' records; the other nodes hold the rest of the instance
// and must be told to close it too (an adi.OpClose through Engine.Apply),
// or they retain — and keep judging their users by — history the
// paper's single PDP deleted. Like Activated it is capacity-capped, so
// appending to it never writes past the decision's own names.
func (d *Decision) Closed() []bctx.Name {
	return d.bounds[d.split:len(d.bounds):len(d.bounds)]
}

// plainGrantPolicies and plainGrantRecords bound the plain grants
// plainGrants holds: matched policies 0 to 3, records 0 to 3. A grant
// records one record per active role an MMER rule lists and one per
// MMEP rule that lists the privilege. A request of the bank or the tax
// policy set matches one policy and records one or two, and an
// unmatched context records nothing, so the routine grants of both are
// in the table, with room for a request that matches a few more
// policies. A grant past either bound is boxed as any other decision.
const plainGrantPolicies, plainGrantRecords = 4, 4

// plainGrants is the table of read-only plain grants, indexed by
// MatchedPolicies and Recorded: about 1 KB, shared by every engine.
var plainGrants = func() (t [plainGrantPolicies][plainGrantRecords]Decision) {
	for m := range t {
		for r := range t[m] {
			t[m][r] = Decision{Effect: Grant, MatchedPolicies: m, Recorded: int32(r)}
		}
	}
	return t
}()

// box is a decision as the engine returns it, once the engine lock is
// released. A plain grant within plainGrants' bounds is that table's
// entry, and a shared denial the object decide kept it in: no
// allocation, shared with every other such decision. Every other
// decision is one allocation: d with refused beside it when it is a
// denial (its Rule is empty for a grant), or with an array of exactly
// the names in bounds (started, then closed; d.split divides them) when
// the grant started or closed one or two instances. Nothing in it is
// shared with another decision. A grant naming three or more instances
// takes the general path: a copy of its names beside the Decision, two
// allocations here, and past four names the growth of decide's buffer
// under the lock before them.
func (d Decision) box(refused Denial, bounds []bctx.Name) *Decision {
	if d.Effect == Grant && refused.Rule == "" && len(bounds) == 0 && d.Purged == 0 &&
		uint(d.MatchedPolicies) < plainGrantPolicies && uint32(d.Recorded) < plainGrantRecords {
		return &plainGrants[d.MatchedPolicies][d.Recorded]
	}
	if refused.shared != nil {
		return &refused.shared.Decision
	}
	if refused.Rule != "" {
		o := &struct {
			Decision
			denial Denial
		}{d, refused}
		o.Denial = &o.denial
		return &o.Decision
	}
	switch len(bounds) {
	case 1:
		o := &struct {
			Decision
			names [1]bctx.Name
		}{d, [1]bctx.Name(bounds)}
		o.bounds = o.names[:]
		return &o.Decision
	case 2:
		o := &struct {
			Decision
			names [2]bctx.Name
		}{d, [2]bctx.Name(bounds)}
		o.bounds = o.names[:]
		return &o.Decision
	}
	o := new(Decision)
	*o = d
	if len(bounds) > 0 {
		// A copy, never bounds itself: that is decide's stack buffer
		// until it spills, and keeping it would move it to the heap on
		// every evaluation.
		o.bounds = slices.Clone(bounds)
	}
	return o
}

// add32 is n + k as a Decision count, saturating at math.MaxInt32.
func add32(n int32, k int) int32 {
	return int32(min(int64(n)+int64(k), math.MaxInt32))
}

// Explainer is the sink an explained evaluation hands each constraint
// it consults to, in evaluation order, as the values the engine holds:
// the engine renders nothing, the one that serves the explanation does
// (internal/explain). Rule runs under the engine lock; what it is handed
// is read-only. The instances a grant terminated are its Closed.
type Explainer interface{ Rule(RuleEval) }

// RuleEval is one constraint an explained evaluation consulted: the
// policy's context (as compiled) and the bound instance that scoped it,
// the rule's name ("MMER[i]", "MMEP[i]") and its k-of-m counters. K is
// the conflict count before the request, KAfter the count a grant
// leaves (K on a deny), M the forbidden cardinality.
type RuleEval struct {
	Policy string
	Bound  bctx.Name
	Rule   string
	// MMER is the rule when it is an MMER one, with Roles the roles the
	// request activated (expanded under a hierarchy-aware engine); an
	// MMEP rule has MMER nil and the requested Privilege.
	MMER         *MMERRule
	Roles        []rbac.RoleName
	Privilege    rbac.Permission
	K, KAfter, M int
	Denied       bool
}

// Tracer takes a traced evaluation's spans: OpenSpan starts the named
// one and returns the handle CloseSpan ends it by. The engine records
// one span per matched policy and a SpanStore span around a grant's
// commit.
type Tracer interface {
	OpenSpan(name string) int
	CloseSpan(span int)
}

// SpanStore names the span around a grant's retained-ADI commit.
const SpanStore = "store"

type contextKey struct{ name string }

// The context keys EvaluateCtx and PeekCtx read a request's Tracer and
// Explainer under. A context value of the caller's own answers them, as
// the shard's per-decision context does.
var (
	TracerKey    = &contextKey{"core tracer"}
	ExplainerKey = &contextKey{"core explainer"}
)

// ExplainerFrom returns ctx's explanation sink, or nil: an unexplained
// request pays exactly this lookup.
func ExplainerFrom(ctx context.Context) Explainer {
	x, _ := ctx.Value(ExplainerKey).(Explainer)
	return x
}

// Engine evaluates requests against a compiled MSoD policy set and a
// retained-ADI store. The part of an evaluation that reads or writes
// the store is serialised by an internal mutex, so the
// read-check-append sequence of the §4.2 algorithm is atomic with
// respect to concurrent requests (two in-flight conflicting requests
// cannot both pass their history checks and both record).
type Engine struct {
	mu       sync.Mutex
	policies []Policy
	// programs holds what NewEngine derived from each policy, and
	// candidates the programs step 1 has to try for a request, by the
	// type of the request context's first component: the policies whose
	// context starts with that type and the universal-context ones, in
	// policy order. universal serves every other request.
	programs   []program
	candidates map[string][]*program
	universal  []*program
	store      adi.Recorder
	now        func() time.Time
	expand     func([]rbac.RoleName) []rbac.RoleName
	// recs is the commit buffer: the records a decision's grant would
	// retain, each matched policy's after the one before it (see
	// action). It is used only under mu, and decide empties it before
	// it releases mu, so it holds nothing of a past request.
	recs []adi.Record
	// seed hashes a mixed program's "!" values to a slot of its names
	// table; bindMask is boundSlots-1, and a test narrows it to make
	// every binding collide.
	seed     maphash.Seed
	bindMask uint64
}

// Option configures an Engine.
type Option func(*Engine)

// WithClock overrides the engine's time source (used for deterministic
// retained-ADI timestamps in tests and experiments).
func WithClock(now func() time.Time) Option {
	return func(e *Engine) { e.now = now }
}

// WithRoleExpander makes MMER constraints hierarchy-aware: activated
// roles are expanded (typically to their inheritance closure, see
// rbac.Model.Closure) before matching, and retained records carry the
// expanded set. Activating a senior role then conflicts exactly like
// activating the junior roles it inherits.
//
// This is an extension beyond the paper, which does not discuss the
// interaction of MMER with role hierarchies; omit the option for the
// paper's literal behaviour.
func WithRoleExpander(expand func([]rbac.RoleName) []rbac.RoleName) Option {
	return func(e *Engine) { e.expand = expand }
}

// NewEngine builds an engine over the given store and policies. Policies
// are validated and compiled (see program); the store must be non-nil.
func NewEngine(store adi.Recorder, policies []Policy, opts ...Option) (*Engine, error) {
	if store == nil {
		return nil, fmt.Errorf("core: nil retained-ADI store")
	}
	for i := range policies {
		if err := policies[i].Validate(); err != nil {
			return nil, fmt.Errorf("core: policy %d: %w", i, err)
		}
	}
	e := &Engine{
		policies:   append([]Policy(nil), policies...),
		programs:   make([]program, len(policies)),
		candidates: make(map[string][]*program),
		store:      store,
		now:        time.Now,
		seed:       maphash.MakeSeed(),
		bindMask:   boundSlots - 1,
	}
	for i := range e.policies {
		e.programs[i] = compileProgram(&e.policies[i])
		if ctx := e.policies[i].Context; !ctx.IsUniversal() {
			e.candidates[ctx.At(0).Type] = nil
		}
	}
	for i := range e.programs {
		pr := &e.programs[i]
		if pr.Context.IsUniversal() {
			e.universal = append(e.universal, pr)
		}
		for typ := range e.candidates {
			if pr.Context.IsUniversal() || pr.Context.At(0).Type == typ {
				e.candidates[typ] = append(e.candidates[typ], pr)
			}
		}
	}
	for _, o := range opts {
		o(e)
	}
	return e, nil
}

// program is one policy as NewEngine compiled it: everything an
// evaluation needs that follows from the policy alone, so a request
// derives none of it.
type program struct {
	*Policy
	// context is Policy.Context rendered, for explain records, and span
	// the name of the policy's trace span.
	context, span string
	// mmer[i] names rule i of Policy.MMER ("MMER[i]").
	mmer []string
	mmep []mmepProgram
	// names holds, for a mixed context (a "!" beside a "*", the one
	// shape binding builds a name for), the names it bound recently,
	// one per slot of the hash of their "!" values, each with its
	// instance's shared denial; it is nil for every other context. It is
	// read and written only under Engine.mu, by bind and decide.
	names []boundSlot
}

// boundSlot is one slot of a mixed program's names table: the name it
// bound last, and the shared denial of its instance once it has one. A
// denial decides nothing about the user beyond the policy, the bound
// instance, the rule, k and m (§4.2 steps 5–6), so every caller denied
// alike in one instance can hold one read-only object. The slot drops
// the denial when bind gives it another instance's name and when a
// granted last step closes the instance, so an engine keeps shared
// denials only of running instances.
type boundSlot struct {
	name   bctx.Name
	denial *sharedDenial
}

// sharedDenial is the object a shared denial lives in: the Decision and
// its Denial, written under the engine lock before the first caller is
// handed them and never written again, and the Denial's text, which its
// first reader renders once for all of them (Denial.Error).
type sharedDenial struct {
	Decision
	denial Denial
	once   sync.Once
	text   string
}

// share is the denial dec and refused decide in s's instance, under
// Engine.mu: the instance's shared denial when it is this one — the
// same rule, k, m and matched policies; the policy and the bound name
// are the slot's — and refused otherwise, for box to make an object of
// its own. The instance's first denial boxes the shared one here, and
// every later one like it is that denial. One of another k keeps its
// own object and leaves the shared one as it is.
func (s *boundSlot) share(dec Decision, refused Denial) Denial {
	sd := s.denial
	if sd == nil {
		sd = &sharedDenial{Decision: dec, denial: refused}
		sd.Denial, sd.denial.shared = &sd.denial, sd
		s.denial = sd
	}
	if sd.MatchedPolicies != dec.MatchedPolicies || sd.denial.Rule != refused.Rule ||
		sd.denial.Held != refused.Held || sd.denial.Cardinality != refused.Cardinality {
		return refused
	}
	return sd.denial
}

// boundSlots is the size of a mixed program's names table: many
// requests share few live instances (a bank's audit periods), so a few
// slots serve nearly every request with a name already bound.
const boundSlots = 64

// mmepProgram is one MMEP rule with its privilege multiset counted.
type mmepProgram struct {
	name        string // "MMEP[i]"
	cardinality int
	// positions are the rule's distinct privileges, in order of first
	// listing, each with the number of times the rule lists it.
	positions []position
}

type position struct {
	priv rbac.Permission
	n    int
}

func compileProgram(p *Policy) program {
	pr := program{Policy: p, context: p.Context.String()}
	pr.span = "msod.policy:" + pr.context
	if bctx.Mixed(p.Context) {
		pr.names = make([]boundSlot, boundSlots)
	}
	for i := range p.MMER {
		pr.mmer = append(pr.mmer, fmt.Sprintf("MMER[%d]", i))
	}
	for i, rule := range p.MMEP {
		mp := mmepProgram{name: fmt.Sprintf("MMEP[%d]", i), cardinality: rule.Cardinality}
	listed:
		for _, priv := range rule.Privileges {
			for k := range mp.positions {
				if mp.positions[k].priv == priv {
					mp.positions[k].n++
					continue listed
				}
			}
			mp.positions = append(mp.positions, position{priv, 1})
		}
		pr.mmep = append(pr.mmep, mp)
	}
	return pr
}

// Policies returns a copy of the engine's compiled policies.
func (e *Engine) Policies() []Policy {
	return append([]Policy(nil), e.policies...)
}

// Store returns the engine's retained-ADI store.
func (e *Engine) Store() adi.Recorder { return e.store }

// matched is one policy step 1 selected, with its context bound to the
// request's instance: by selectPolicies, or, for a mixed program, by
// decide under the lock, which keeps in slot the table slot the name
// came from.
type matched struct {
	*program
	bound bctx.Name
	slot  *boundSlot
}

// denial is the Denial of one of m's rules: held conflicts found
// against the rule's forbidden cardinality.
func (m *matched) denial(rule string, held, cardinality int) Denial {
	return Denial{PolicyContext: m.Context, BoundContext: m.bound, Rule: rule, Held: held, Cardinality: cardinality}
}

// action is the deferred store mutation of one matched policy, applied
// in policy order only if the overall result is Grant: a purge of the
// bound context, with its names-table slot's shared denial for a mixed
// program, or an append of the records recs[from:to] of the engine's
// commit buffer. The zero action does nothing.
type action struct {
	purge     bool
	bound     bctx.Name
	slot      *boundSlot
	from, to  int
	activates bool // the request is the granted first step of a FirstStep-gated policy
}

// Evaluate runs the §4.2 enforcement algorithm. The request must already
// have passed the ordinary RBAC check. On Grant, the retained ADI is
// updated (new records and/or last-step purges); on Deny, the store is
// untouched. The Decision is read-only: the engine may hand the same
// object to many callers (see Decision).
func (e *Engine) Evaluate(req Request) (*Decision, error) {
	return e.evaluate(context.Background(), req, true)
}

// EvaluateCtx is Evaluate carrying a context: when the context holds
// a Tracer, the engine records one span per matched policy and a
// SpanStore span around the retained-ADI commit phase; when it holds
// an Explainer, every consulted constraint. Untraced contexts pay a
// single nil check. Its Decision is read-only, as Evaluate's.
func (e *Engine) EvaluateCtx(ctx context.Context, req Request) (*Decision, error) {
	return e.evaluate(ctx, req, true)
}

// Peek runs the same algorithm as Evaluate but never mutates the
// retained ADI, answering "would this request be granted right now?" —
// an advisory mode for UX (greying out actions) and for planners. The
// Decision's Recorded field reports how many records a real evaluation
// would have written; Purged is only populated by Evaluate.
//
// Note the TOCTOU caveat inherent to any advisory answer: a Grant from
// Peek can become Deny by the time Evaluate runs if conflicting history
// lands in between. The Decision is read-only, as Evaluate's: a plain
// grant is the same shared object an evaluation returns.
func (e *Engine) Peek(req Request) (*Decision, error) {
	return e.evaluate(context.Background(), req, false)
}

// PeekCtx is Peek carrying a context (see EvaluateCtx). Its Decision is
// read-only, as Peek's.
func (e *Engine) PeekCtx(ctx context.Context, req Request) (*Decision, error) {
	return e.evaluate(ctx, req, false)
}

// Apply is the engine's one change to its store that is not a
// decision's own commit (adi.Op): it applies ops in order, handing each
// one's effect to applied — a failed op's too when it changed something
// (adi.Apply) — and stops at the first error. It holds the engine lock
// throughout, so an evaluation runs wholly before the batch or wholly
// after it, never between its history checks and its append. An
// activate or release op with no Time is stamped with the engine's
// clock, as a grant's records are. applied runs under the lock.
func (e *Engine) Apply(ops []adi.Op, applied func(adi.Op, adi.Effect)) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, op := range ops {
		if op.Time.IsZero() && (op.Kind == adi.OpActivate || op.Kind == adi.OpRelease) {
			op.Time = e.now()
		}
		eff, err := adi.Apply(e.store, op)
		if err == nil || eff.Removed > 0 || eff.Activated > 0 {
			applied(op, eff)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (e *Engine) evaluate(ctx context.Context, req Request, commit bool) (*Decision, error) {
	if err := req.Validate(); err != nil {
		return nil, err
	}
	if e.expand != nil {
		// Hierarchy-aware extension: evaluate and record with the
		// expanded role set (req is a copy; the caller's slice is not
		// modified).
		req.Roles = e.expand(req.Roles)
	}

	// Step 1: select the policies whose business context matches the
	// request's context instance, binding "!" components. Selecting
	// consults only the immutable policies, so it runs before the lock;
	// a request no policy matches never takes it. A mixed program is
	// bound under the lock (see bind).
	var buf [4]matched
	matches := e.selectPolicies(req.Context, buf[:0])
	if len(matches) == 0 {
		return &plainGrants[0][0], nil // a grant
	}
	var names [4]bctx.Name // the instances a grant starts and closes; more spill
	dec, refused, bounds, err := e.decide(ctx, req, matches, commit, names[:0])
	if err != nil {
		return nil, err
	}
	return dec.box(refused, bounds), nil
}

// selectPolicies appends to out, in policy order, the candidate
// policies whose context the (validated) instance falls within, each
// bound to it but a mixed one, which bind binds under the lock.
func (e *Engine) selectPolicies(inst bctx.Name, out []matched) []matched {
	candidates := e.universal
	if !inst.IsUniversal() {
		if byType, ok := e.candidates[inst.At(0).Type]; ok {
			candidates = byType
		}
	}
	for _, pr := range candidates {
		if pr.names != nil {
			// inst is an instance, so MatchInstance cannot fail.
			if ok, _ := bctx.MatchInstance(pr.Context, inst); ok {
				out = append(out, matched{program: pr})
			}
		} else if bound, ok := bctx.MatchBind(pr.Context, inst); ok {
			out = append(out, matched{program: pr, bound: bound})
		}
	}
	return out
}

// bind binds a mixed program's context to inst, under e.mu, and returns
// the program's table slot for inst's "!" values: its name when it is,
// component for component, the one MatchBind would build, and otherwise
// the one MatchBind builds, which takes the slot and drops what was
// denied in the instance before. Names are immutable, so every request
// of an instance that keeps its slot shares one name — in its Denial,
// Activated, Closed and explain entry alike.
func (e *Engine) bind(pr *program, inst bctx.Name) *boundSlot {
	slot := &pr.names[e.slot(pr, inst)]
	if !bctx.IsBinding(slot.name, pr.Context, inst) {
		name, _ := bctx.MatchBind(pr.Context, inst)
		*slot = boundSlot{name: name}
	}
	return slot
}

// slot is the index of inst's binding in pr's table: a hash of the
// values its "!" components take.
func (e *Engine) slot(pr *program, inst bctx.Name) uint64 {
	var h uint64
	for i := range pr.Context.Len() {
		if pr.Context.At(i).Value == bctx.PerInstance {
			h = 31*h + maphash.String(e.seed, inst.At(i).Value)
		}
	}
	return h & e.bindMask
}

// decide runs steps 3–7 for every matched policy and then the commit
// phase, all under the engine lock: what one request reads of the
// retained ADI cannot change before what it decides to write is written.
// A denial comes back as the refusing constraint's Denial, by value
// (its Rule is empty for a grant) — a mixed program's shared one when
// boundSlot.share has it — and a grant's started and closed instances
// appended to bounds, the caller's buffer, started first (dec.split
// counts them): nothing is allocated for either under the lock unless
// a grant names more instances than the buffer holds, or a denial is
// the first of its instance, which boxes the shared one.
func (e *Engine) decide(ctx context.Context, req Request, matches []matched, commit bool,
	bounds []bctx.Name) (Decision, Denial, []bctx.Name, error) {
	// tr is resolved once; all per-policy and store span bookkeeping is
	// skipped when the request is untraced. xr is the decision's
	// explanation sink (nil when the request is not being explained —
	// advisories, and servers without an explain ring); per-rule
	// counter capture is skipped entirely then.
	tr, _ := ctx.Value(TracerKey).(Tracer)
	xr := ExplainerFrom(ctx)

	e.mu.Lock()
	defer e.mu.Unlock()
	defer e.dropRecords()
	now := e.now()
	var buf [4]action
	actions := buf[:0]
	for i := range matches {
		if matches[i].names != nil {
			matches[i].slot = e.bind(matches[i].program, req.Context)
			matches[i].bound = matches[i].slot.name
		}
		var span int
		if tr != nil {
			span = tr.OpenSpan(matches[i].span)
		}
		act, refused, err := e.evaluatePolicy(&matches[i], req, now, xr)
		if tr != nil {
			tr.CloseSpan(span)
		}
		if err != nil {
			return Decision{}, Denial{}, nil, err
		}
		if refused.Rule != "" {
			// Deny exits immediately; no retained-ADI mutation at all.
			dec := Decision{Effect: Deny, MatchedPolicies: i + 1}
			if s := matches[i].slot; s != nil {
				refused = s.share(dec, refused)
			}
			return dec, refused, nil, nil
		}
		if act.purge || act.activates || act.to > act.from {
			actions = append(actions, act)
		}
	}

	// Commit phase: every matched policy granted, apply mutations in
	// policy order. In advisory mode (Peek) the mutations are only
	// counted, never applied.
	dec := Decision{Effect: Grant, MatchedPolicies: len(matches)}
	if tr != nil && commit && len(actions) > 0 {
		defer tr.CloseSpan(tr.OpenSpan(SpanStore))
	}
	for _, act := range actions {
		if act.purge {
			if commit {
				n, err := e.store.PurgeContext(act.bound)
				if err != nil {
					return Decision{}, Denial{}, nil, fmt.Errorf("core: purge %q: %w", act.bound, err)
				}
				dec.Purged = add32(dec.Purged, n)
				bounds = append(bounds, act.bound)
				if act.slot != nil {
					act.slot.denial = nil
				}
			}
			continue
		}
		recs := e.recs[act.from:act.to]
		if commit && len(recs) > 0 {
			if err := e.store.AppendCtx(ctx, recs...); err != nil {
				return Decision{}, Denial{}, nil, fmt.Errorf("core: record decision: %w", err)
			}
		}
		dec.Recorded = add32(dec.Recorded, len(recs))
		if commit && act.activates {
			// Filed after the instances started before it, ahead of
			// any closed ones: each half keeps policy order.
			bounds = slices.Insert(bounds, int(dec.split), act.bound)
			dec.split++
		}
	}
	return dec, Denial{}, bounds, nil
}

// dropRecords empties the commit buffer, zeroing the records a decision
// put there, so that the engine keeps no reference to its request.
func (e *Engine) dropRecords() {
	clear(e.recs)
	e.recs = e.recs[:0]
}

// evaluatePolicy runs steps 3–7 for one matched policy with its bound
// context. It returns the deferred store action for a grant, whose
// records it appends to the commit buffer, or the refusing constraint.
// When xr is non-nil, every consulted constraint is handed to it with
// its k-of-m counter state before and after.
func (e *Engine) evaluatePolicy(m *matched, req Request, now time.Time, xr Explainer) (action, Denial, error) {
	// Step 7 precheck: a granted last step terminates the context
	// instance — the §4.2 text orders this after the constraint checks,
	// and the PERMIS implementation (§5.2) flushes on recording the
	// granted last step. Constraint checks still apply to the last step
	// itself (it may be one of the mutually exclusive privileges).
	isLast := m.LastStep.matches(req.Operation, req.Target)

	// Step 3: has this bound context instance any retained history?
	active, err := e.store.ContextActive(m.bound)
	if err != nil {
		return action{}, Denial{}, fmt.Errorf("core: context query: %w", err)
	}

	if !active {
		// Step 4: no history. Record only if this is the policy's first
		// step, or the policy defines none (enforcement starts with the
		// first operation invoked inside the context).
		if m.FirstStep != nil && !m.FirstStep.matches(req.Operation, req.Target) {
			// Context has not started: MSoD does not yet apply.
			return action{}, Denial{}, nil
		}
		if isLast {
			// First operation is also the last step: the instance
			// terminates immediately; nothing to retain.
			return action{purge: true, bound: m.bound, slot: m.slot}, Denial{}, nil
		}
		if xr != nil {
			// The opening record seeds the k-of-m counters that
			// later requests are judged against, so the provenance
			// trace shows which constraints now track this context
			// and where their counters land (k 0 -> nr).
			explainOpening(m, req, xr)
		}
		// An explicit first step starting the instance is the
		// activation other nodes of a distributed PDP must hear
		// about (see Decision.Activated).
		from := len(e.recs)
		e.recs = append(e.recs, newRecord(req, req.Roles, now))
		return action{
			bound:     m.bound,
			from:      from,
			to:        len(e.recs),
			activates: m.FirstStep != nil,
		}, Denial{}, nil
	}

	// Step 5: MMER constraints.
	for i := range m.MMER {
		rule := &m.MMER[i]
		nr := rule.activated(req.Roles)
		if nr == 0 {
			continue
		}
		count := 0
		for _, role := range rule.Roles {
			if containsRole(req.Roles, role) {
				continue
			}
			ok, err := e.store.UserHasRole(req.User, m.bound, role)
			if err != nil {
				return action{}, Denial{}, fmt.Errorf("core: role history query: %w", err)
			}
			if ok {
				count++
			}
		}
		denied := count >= rule.Cardinality-nr
		if xr != nil {
			after := count
			if !denied {
				// A grant records every matched role (step 5.iv), so the
				// user then holds all of them in the bound context.
				after = count + nr
			}
			xr.Rule(RuleEval{
				Policy: m.context, Bound: m.bound, Rule: m.mmer[i], MMER: rule, Roles: req.Roles,
				K: count, KAfter: after, M: rule.Cardinality, Denied: denied,
			})
		}
		if denied {
			return action{}, m.denial(m.mmer[i], count, rule.Cardinality), nil
		}
	}

	// Step 6: MMEP constraints.
	reqPriv := rbac.Permission{Operation: req.Operation, Object: req.Target}
	for i := range m.mmep {
		rule := &m.mmep[i]
		if !rule.lists(reqPriv) {
			continue
		}
		// Multiset matching: each remaining position needs a distinct
		// supporting ADI record of the same privilege (the literal
		// any-record reading is internal/refmodel's E11 ablation).
		count := 0
		for _, pos := range rule.positions {
			nPos := pos.n
			if pos.priv == reqPriv {
				// One occurrence of the requested privilege is the
				// current request and is ignored from counting. When it
				// is listed multiple times, the occurrences beyond it
				// remain countable positions, so prior executions of
				// the same privilege are conflicts (this is the
				// MMEP({p,p},2) repetition cap of §2.4/§3).
				if nPos--; nPos == 0 {
					continue
				}
			}
			n, err := e.store.CountUserPrivilege(req.User, m.bound, pos.priv, nPos)
			if err != nil {
				return action{}, Denial{}, fmt.Errorf("core: privilege history query: %w", err)
			}
			count += n
		}
		denied := count >= rule.cardinality-1
		if xr != nil {
			after := count
			if !denied {
				after = count + 1 // this request consumes one position
			}
			xr.Rule(RuleEval{
				Policy: m.context, Bound: m.bound, Rule: rule.name, Privilege: reqPriv,
				K: count, KAfter: after, M: rule.cardinality, Denied: denied,
			})
		}
		if denied {
			return action{}, m.denial(rule.name, count, rule.cardinality), nil
		}
	}

	// Step 7: a granted last step terminates the bound context instance;
	// otherwise the records are retained.
	if isLast {
		return action{purge: true, bound: m.bound, slot: m.slot}, Denial{}, nil
	}
	// The first step, granted in an instance that is running here, is
	// reported like the one that started it (see Decision.Activated).
	act := action{bound: m.bound, activates: m.FirstStep != nil && m.FirstStep.matches(req.Operation, req.Target), from: len(e.recs)}
	for i := range m.MMER {
		// Step 5.iv: one new record per currently matched role. Its
		// one-role slice is the rule's own; the store keeps its own
		// (see adi.Recorder).
		for k, role := range m.MMER[i].Roles {
			if containsRole(req.Roles, role) {
				e.recs = append(e.recs, newRecord(req, m.MMER[i].Roles[k:k+1:k+1], now))
			}
		}
	}
	// One record per MMEP rule listing the requested privilege.
	for i := range m.mmep {
		if m.mmep[i].lists(reqPriv) {
			e.recs = append(e.recs, newRecord(req, req.Roles, now))
		}
	}
	act.to = len(e.recs)
	return act, Denial{}, nil
}

// activated counts the rule's roles the request activates (nr).
func (r *MMERRule) activated(roles []rbac.RoleName) int {
	nr := 0
	for _, role := range r.Roles {
		if containsRole(roles, role) {
			nr++
		}
	}
	return nr
}

// lists reports whether the rule lists the privilege.
func (r *mmepProgram) lists(p rbac.Permission) bool {
	for _, pos := range r.positions {
		if pos.priv == p {
			return true
		}
	}
	return false
}

// explainOpening hands xr the rule evaluations of a context-opening
// grant (step 4: no retained history, so every consulted counter is
// zero). The opening record supports later UserHasRole /
// CountUserPrivilege counts, so KAfter reflects the state the grant
// leaves behind: nr matched roles for MMER, one consumed position for
// MMEP.
func explainOpening(m *matched, req Request, xr Explainer) {
	for i := range m.MMER {
		rule := &m.MMER[i]
		if nr := rule.activated(req.Roles); nr > 0 {
			xr.Rule(RuleEval{Policy: m.context, Bound: m.bound, Rule: m.mmer[i], MMER: rule, Roles: req.Roles, KAfter: nr, M: rule.Cardinality})
		}
	}
	reqPriv := rbac.Permission{Operation: req.Operation, Object: req.Target}
	for i := range m.mmep {
		if rule := &m.mmep[i]; rule.lists(reqPriv) {
			xr.Rule(RuleEval{Policy: m.context, Bound: m.bound, Rule: rule.name, Privilege: reqPriv, KAfter: 1, M: rule.cardinality})
		}
	}
}

// newRecord builds the §4.2 six-tuple for the request. The stored
// context is the request's concrete instance, so that future policies
// binding different patterns can still match it. roles is not copied:
// adi.Recorder's Append keeps its own.
func newRecord(req Request, roles []rbac.RoleName, now time.Time) adi.Record {
	return adi.Record{
		User:      req.User,
		Roles:     roles,
		Operation: req.Operation,
		Target:    req.Target,
		Context:   req.Context,
		Time:      now,
	}
}

func containsRole(roles []rbac.RoleName, r rbac.RoleName) bool {
	for _, x := range roles {
		if x == r {
			return true
		}
	}
	return false
}
