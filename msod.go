// Package msod is a Go implementation of Multi-session Separation of
// Duties (MSoD) for RBAC, after Chadwick, Xu, Otenko, Laborde and Nasser
// (ICDE 2007): history-based separation-of-duty constraints — mutually
// exclusive roles (MMER) and mutually exclusive privileges (MMEP) —
// scoped by hierarchically named business contexts and enforced at
// access-decision time against a retained-ADI store of previous grants.
//
// The package is a facade over the implementation packages; the exported
// names below are the supported surface.
//
// # Layers
//
// Most applications use the PDP layer: parse an XML policy (roles,
// target-access grants, issuer trust and the embedded MSoDPolicySet of
// the paper's Appendix A), build a PDP, and submit decision requests:
//
//	pol, err := msod.ParsePolicy(xmlBytes)
//	p, err := msod.NewPDP(msod.PDPConfig{Policy: pol})
//	dec, err := p.Decide(msod.Request{
//	    User:      "alice",
//	    Roles:     []msod.RoleName{"Teller"},
//	    Operation: "HandleCash",
//	    Target:    "till",
//	    Context:   msod.MustContext("Branch=York, Period=2006"),
//	})
//
// Systems that already have their own RBAC evaluation can embed just the
// MSoD engine (NewEngine) over a retained-ADI store, and distributed
// deployments can front the PDP with the HTTP server (NewServer /
// NewClient).
//
// See DESIGN.md for the paper-to-code mapping and EXPERIMENTS.md for the
// reproduction results.
package msod

import (
	"msod/internal/adi"
	"msod/internal/audit"
	"msod/internal/bctx"
	"msod/internal/core"
	"msod/internal/credential"
	"msod/internal/directory"
	"msod/internal/explain"
	"msod/internal/inspect"
	"msod/internal/pdp"
	"msod/internal/pep"
	"msod/internal/policy"
	// Linked for its init: policycheck registers the model checker with
	// policy.Lint, so LintPolicy also returns its semantic findings.
	_ "msod/internal/policycheck"
	"msod/internal/rbac"
	"msod/internal/server"
	"msod/internal/workflow"
)

// Identifier and privilege types of the RBAC substrate.
type (
	// UserID is a stable user identifier; MSoD requires it to be the
	// same across all of a user's sessions.
	UserID = rbac.UserID
	// RoleName names a role.
	RoleName = rbac.RoleName
	// Operation names an action.
	Operation = rbac.Operation
	// Object identifies a protected target.
	Object = rbac.Object
	// Permission is the right to perform an Operation on an Object.
	Permission = rbac.Permission
)

// Business context types.
type (
	// Context is a hierarchical business context name.
	Context = bctx.Name
	// ContextHierarchy tracks active context instances (Figure 2).
	ContextHierarchy = bctx.Hierarchy
)

// ParseContext parses "Type1=Value1, Type2=Value2"; the empty string is
// the universal context.
func ParseContext(s string) (Context, error) { return bctx.Parse(s) }

// MustContext is ParseContext panicking on error, for literals.
func MustContext(s string) Context { return bctx.MustParse(s) }

// NewContextHierarchy returns an empty active-instance tracker.
func NewContextHierarchy() *ContextHierarchy { return bctx.NewHierarchy() }

// MSoD engine types (the paper's contribution).
type (
	// Engine evaluates the §4.2 enforcement algorithm. The *Decision
	// its Evaluate, EvaluateCtx, Peek and PeekCtx return, and the
	// *Denial in it, are read-only: the engine may hand the same object
	// to many callers (a plain grant, or a denial repeated in its bound
	// instance), so a caller copies one before it changes it.
	Engine = core.Engine
	// EnginePolicy is one compiled MSoD policy.
	EnginePolicy = core.Policy
	// MMEPRule is a multi-session mutually exclusive privileges
	// constraint.
	MMEPRule = core.MMEPRule
	// EngineRequest is the engine-level request.
	EngineRequest = core.Request
)

// NewEngine builds an MSoD engine over a retained-ADI store.
func NewEngine(store ADIRecorder, policies []EnginePolicy, opts ...core.Option) (*Engine, error) {
	return core.NewEngine(store, policies, opts...)
}

// Retained-ADI types.
type (
	// ADIRecorder is the retained-ADI store interface.
	ADIRecorder = adi.Recorder
	// ADIStore is the indexed in-memory store.
	ADIStore = adi.Store
	// ADIDurableStore is the WAL-backed durable retained ADI (the §6
	// "secure relational database" successor design): mutations are
	// sealed to a write-ahead log and folded into snapshots by Compact,
	// so a restarting PDP recovers without replaying audit trails.
	ADIDurableStore = adi.DurableStore
)

// OpenDurableADI opens (creating if necessary) a durable retained-ADI
// store in dir. With syncEveryWrite, each mutation is fsynced.
func OpenDurableADI(dir string, secret []byte, syncEveryWrite bool) (*ADIDurableStore, error) {
	return adi.OpenDurable(dir, secret, syncEveryWrite)
}

// NewADIStore returns an empty indexed retained-ADI store.
func NewADIStore() *ADIStore { return adi.NewStore() }

// Policy is the PERMIS-style policy envelope (XML).
type Policy = policy.RBACPolicy

// ParsePolicy parses and validates an RBACPolicy XML document.
func ParsePolicy(data []byte) (*Policy, error) { return policy.ParseRBACPolicy(data) }

// LintFinding is one policy-lint diagnostic.
type LintFinding = policy.Finding

// LintWarn marks a probable authoring mistake; error-severity findings
// ("error") are provable defects that deployment gates refuse.
const LintWarn = policy.Warn

// LintPolicy reports probable policy-authoring mistakes beyond hard
// validation: constraints that can never fire, dead roles, unstartable
// or unterminable contexts, unbounded-history notes. Because this
// package links internal/policycheck, the result also carries the
// model checker's semantic findings (satisfiability, finishability,
// shadowing, purge safety).
func LintPolicy(p *Policy) ([]LintFinding, error) { return policy.Lint(p) }

// Credential types.
type (
	// Credential is a signed attribute credential.
	Credential = credential.Credential
	// Authority is a source of authority (credential issuer).
	Authority = credential.Authority
	// Linker resolves multi-authority identities to a local user ID.
	Linker = credential.Linker
)

// NewAuthority generates a named Ed25519 credential issuer.
func NewAuthority(name string) (*Authority, error) { return credential.NewAuthority(name) }

// NewLinker returns an empty identity linker.
func NewLinker() *Linker { return credential.NewLinker() }

// Directory types (the Figure 4 privilege-allocation sub-system and the
// LDAP-style attribute repository).
type (
	// Directory is the untrusted credential repository.
	Directory = directory.Repository
	// DirectoryServer exposes a Directory over HTTP.
	DirectoryServer = directory.Server
	// DirectoryClient fetches credentials from a remote Directory.
	DirectoryClient = directory.Client
	// Allocator is the privilege-allocation sub-system: an Authority
	// bound to a Directory.
	Allocator = directory.Allocator
)

// NewDirectory returns an empty credential repository.
func NewDirectory() *Directory { return directory.NewRepository() }

// NewDirectoryServer wraps a repository in an http.Handler.
func NewDirectoryServer(repo *Directory) *DirectoryServer { return directory.NewServer(repo) }

// NewDirectoryClient builds a client for the directory at base URL.
func NewDirectoryClient(base string) *DirectoryClient { return directory.NewClient(base, nil) }

// NewAllocator binds an authority to a repository.
func NewAllocator(a *Authority, repo *Directory) (*Allocator, error) {
	return directory.NewAllocator(a, repo)
}

// PDP types.
type (
	// PDP is the full decision point: CVS -> RBAC -> MSoD -> audit.
	PDP = pdp.PDP
	// PDPConfig assembles a PDP.
	PDPConfig = pdp.Config
	// Request is a PDP decision request.
	Request = pdp.Request
	// ManagementRequest is a §4.3 retained-ADI management operation.
	ManagementRequest = pdp.ManagementRequest
	// RecoveryConfig parameterises start-up recovery.
	RecoveryConfig = pdp.RecoveryConfig
)

// RecoverFromTrail is the recovery mode that replays the audit trail
// (§5.2); the zero mode starts with an empty retained ADI.
const RecoverFromTrail = pdp.RecoverFromTrail

// NewPDP builds a PDP from a configuration.
func NewPDP(cfg PDPConfig) (*PDP, error) { return pdp.New(cfg) }

// Recover rebuilds a retained ADI per the recovery configuration.
func Recover(pol *Policy, rc RecoveryConfig) (*ADIStore, audit.ReplayStats, error) {
	return pdp.Recover(pol, rc)
}

// Audit trail types.
type (
	// AuditWriter appends decision events to HMAC-chained segments.
	AuditWriter = audit.Writer
	// AuditReader verifies and reads trail segments.
	AuditReader = audit.Reader
)

// NewAuditWriter opens (or resumes) a trail directory.
func NewAuditWriter(dir string, key []byte, segmentSize int) (*AuditWriter, error) {
	return audit.NewWriter(dir, key, segmentSize)
}

// NewAuditReader opens a trail directory for verification and replay.
func NewAuditReader(dir string, key []byte) (*AuditReader, error) {
	return audit.NewReader(dir, key)
}

// Remote deployment types.
type (
	// Server exposes a PDP over HTTP+JSON.
	Server = server.Server
	// Client is a remote PEP's PDP client; it satisfies the workflow
	// engine's Decider interface.
	Client = server.Client
	// DecisionRequest is the wire form of a decision request.
	DecisionRequest = server.DecisionRequest
	// DecisionResponse is the wire form of a decision.
	DecisionResponse = server.DecisionResponse
	// ManagementWireRequest is the wire form of a management operation.
	ManagementWireRequest = server.ManagementWireRequest
	// ClientOption configures a Client at construction.
	ClientOption = server.ClientOption
	// ServerOption configures a Server at construction.
	ServerOption = server.Option
)

// NewServer wraps a PDP in an http.Handler.
func NewServer(p *PDP, opts ...ServerOption) *Server { return server.New(p, opts...) }

// WithServerGauge adds an operator-defined gauge to the server's
// /v1/metrics endpoint, read at scrape time.
func WithServerGauge(name, help string, fn func() float64) ServerOption {
	return server.WithGauge(name, help, fn)
}

// NewClient builds a client for the PDP (or msodgw gateway) at base URL.
func NewClient(base string, opts ...ClientOption) *Client {
	return server.NewClient(base, nil, opts...)
}

// Served views: one user's live MSoD state (/v1/state/users/{user})
// and one decision's provenance (/v1/explain/{requestID}).
type (
	// UserStateView is one user's retained-ADI records and per-constraint
	// progress (k of m roles/privileges consumed).
	UserStateView = inspect.UserState
	// ExplainRecord is one decision's full provenance trace: which
	// policies and MSoD rules applied, the k-of-m counter state before
	// and after, and the constraint that governed the outcome.
	ExplainRecord = explain.Record
)

// PEP types (the application-side enforcement function of Figure 3).
type (
	// Enforcer guards application actions with PDP decisions for one
	// subject within one business context instance.
	Enforcer = pep.Enforcer
	// Subject is the initiator an Enforcer acts for.
	Subject = pep.Subject
)

// ErrDenied is returned by Enforcer.Do on a PDP denial.
var ErrDenied = pep.ErrDenied

// NewEnforcer builds a PEP enforcer over any decider (*PDP directly, or
// an adapter over a remote Client).
func NewEnforcer(d pep.Decider, subject Subject, ctx Context) (*Enforcer, error) {
	return pep.New(d, subject, ctx)
}

// Workflow types (the process substrate driving Example 2).
type (
	// WorkflowDefinition is an ordered set of tasks forming a process.
	WorkflowDefinition = workflow.Definition
	// WorkflowInstance is a live run bound to a business context.
	WorkflowInstance = workflow.Instance
)

// NewWorkflowInstance starts an instance of the definition in the given
// business context instance.
func NewWorkflowInstance(def *WorkflowDefinition, ctx Context) (*WorkflowInstance, error) {
	return workflow.NewInstance(def, ctx)
}

// TaxRefundWorkflow returns the paper's Example 2 process definition.
func TaxRefundWorkflow() *WorkflowDefinition { return workflow.TaxRefundDefinition() }
