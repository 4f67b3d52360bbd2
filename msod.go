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
	"log/slog"
	"time"

	"msod/internal/adi"
	"msod/internal/audit"
	"msod/internal/bctx"
	"msod/internal/core"
	"msod/internal/credential"
	"msod/internal/directory"
	"msod/internal/explain"
	"msod/internal/inspect"
	"msod/internal/obsv"
	"msod/internal/pdp"
	"msod/internal/pep"
	"msod/internal/policy"
	"msod/internal/policycheck"
	"msod/internal/rbac"
	"msod/internal/replica"
	"msod/internal/server"
	"msod/internal/trace"
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
	// RBACModel is the ANSI RBAC model (users, roles, sessions, SSD/DSD).
	RBACModel = rbac.Model
	// SoDSet is an ANSI m-out-of-n mutually exclusive role set.
	SoDSet = rbac.SoDSet
)

// NewRBACModel returns an empty ANSI RBAC model.
func NewRBACModel() *RBACModel { return rbac.NewModel() }

// Business context types.
type (
	// Context is a hierarchical business context name.
	Context = bctx.Name
	// ContextComponent is one Type=Value element of a context name.
	ContextComponent = bctx.Component
	// ContextHierarchy tracks active context instances (Figure 2).
	ContextHierarchy = bctx.Hierarchy
)

// Context wildcard values.
const (
	// AnyInstance ("*"): the constraint aggregates across all instances.
	AnyInstance = bctx.AnyInstance
	// PerInstance ("!"): the constraint is scoped per instance.
	PerInstance = bctx.PerInstance
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
	// Engine evaluates the §4.2 enforcement algorithm.
	Engine = core.Engine
	// EnginePolicy is one compiled MSoD policy.
	EnginePolicy = core.Policy
	// MMERRule is a multi-session mutually exclusive roles constraint.
	MMERRule = core.MMERRule
	// MMEPRule is a multi-session mutually exclusive privileges
	// constraint.
	MMEPRule = core.MMEPRule
	// Step delimits a business context (first/last step).
	Step = core.Step
	// EngineRequest is the engine-level request.
	EngineRequest = core.Request
	// EngineDecision is the engine-level decision.
	EngineDecision = core.Decision
	// Denial explains an MSoD denial.
	Denial = core.Denial
	// Effect is Grant or Deny.
	Effect = core.Effect
)

// Engine effects.
const (
	Grant = core.Grant
	Deny  = core.Deny
)

// NewEngine builds an MSoD engine over a retained-ADI store.
func NewEngine(store ADIRecorder, policies []EnginePolicy, opts ...core.Option) (*Engine, error) {
	return core.NewEngine(store, policies, opts...)
}

// WithClock overrides the engine time source.
func WithClock(now func() time.Time) core.Option { return core.WithClock(now) }

// WithRoleExpander makes MMER constraints hierarchy-aware (extension;
// see EnginePolicy docs and DESIGN.md). Typically passed
// model.Closure from an RBACModel.
func WithRoleExpander(expand func([]RoleName) []RoleName) core.Option {
	return core.WithRoleExpander(expand)
}

// CompileMSoD compiles a parsed MSoDPolicySet into engine policies.
func CompileMSoD(set *MSoDPolicySet) ([]EnginePolicy, error) { return core.Compile(set) }

// Retained-ADI types.
type (
	// ADIRecord is the §4.2 six-tuple of a granted decision.
	ADIRecord = adi.Record
	// ADIRecorder is the retained-ADI store interface.
	ADIRecorder = adi.Recorder
	// ADIStore is the indexed in-memory store.
	ADIStore = adi.Store
	// ADISecureStore is the sealed persistent snapshot store.
	ADISecureStore = adi.SecureStore
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

// NewADISecureStore opens an encrypted snapshot store at path.
func NewADISecureStore(path string, secret []byte) (*ADISecureStore, error) {
	return adi.NewSecureStore(path, secret)
}

// Policy types (XML formats).
type (
	// Policy is the PERMIS-style policy envelope.
	Policy = policy.RBACPolicy
	// MSoDPolicySet is the Appendix A policy set.
	MSoDPolicySet = policy.MSoDPolicySet
	// MSoDPolicy is one MSoD policy.
	MSoDPolicy = policy.MSoDPolicy
)

// ParsePolicy parses and validates an RBACPolicy XML document.
func ParsePolicy(data []byte) (*Policy, error) { return policy.ParseRBACPolicy(data) }

// LintFinding is one policy-lint diagnostic.
type LintFinding = policy.Finding

// Lint severities.
const (
	// LintError marks provable defects (unsatisfiable or unfinishable
	// business methods, unpurgeable contexts); deployment gates refuse
	// policies carrying them.
	LintError = policy.Error
	LintWarn  = policy.Warn
	LintInfo  = policy.Info
)

// LintPolicy reports probable policy-authoring mistakes beyond hard
// validation: constraints that can never fire, dead roles, unstartable
// or unterminable contexts, unbounded-history notes. Because this
// package links internal/policycheck, the result also carries the
// model checker's semantic findings (satisfiability, finishability,
// shadowing, purge safety).
func LintPolicy(p *Policy) ([]LintFinding, error) { return policy.Lint(p) }

// PolicyCheckResult is VerifyPolicySource's outcome: the parsed
// policy, its unsuppressed findings, and the suppression count.
type PolicyCheckResult = policycheck.CheckResult

// VerifyPolicy runs only the semantic model checker — bounded
// exploration of the k-of-m constraint state space — without the
// declaration lint. Most callers want LintPolicy (both passes) or
// VerifyPolicySource (both passes plus suppression directives).
func VerifyPolicy(p *Policy) ([]LintFinding, error) { return policycheck.Check(p) }

// VerifyPolicySource parses a policy XML document, runs the
// declaration lint and the semantic model checker, and applies the
// document's msod:ignore suppression comments — the same verification
// msodvet -policies and the msodd -verify-policies boot gate perform.
func VerifyPolicySource(data []byte) (*PolicyCheckResult, error) {
	return policycheck.CheckSource(data, policycheck.Config{})
}

// ParseMSoDPolicySet parses and validates an MSoDPolicySet XML document.
func ParseMSoDPolicySet(data []byte) (*MSoDPolicySet, error) {
	return policy.ParseMSoDPolicySet(data)
}

// Credential types.
type (
	// Credential is a signed attribute credential.
	Credential = credential.Credential
	// Attribute is one typed attribute in a credential.
	Attribute = credential.Attribute
	// Authority is a source of authority (credential issuer).
	Authority = credential.Authority
	// CVS is the credential validation service.
	CVS = credential.CVS
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
	// DirectoryEntry is a stored credential with its content address.
	DirectoryEntry = directory.Entry
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
	// Decision is a PDP decision.
	Decision = pdp.Decision
	// ManagementRequest is a §4.3 retained-ADI management operation.
	ManagementRequest = pdp.ManagementRequest
	// RecoveryConfig parameterises start-up recovery.
	RecoveryConfig = pdp.RecoveryConfig
)

// Decision phases.
const (
	PhaseRBAC    = pdp.PhaseRBAC
	PhaseMSoD    = pdp.PhaseMSoD
	PhaseGranted = pdp.PhaseGranted
)

// Recovery modes.
const (
	RecoverNone         = pdp.RecoverNone
	RecoverFromTrail    = pdp.RecoverFromTrail
	RecoverFromSnapshot = pdp.RecoverFromSnapshot
)

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
	// AuditEvent is one logged decision.
	AuditEvent = audit.Event
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
	// ManagementWireResponse is the wire form of a management result.
	ManagementWireResponse = server.ManagementWireResponse
	// ClientOption configures a Client at construction.
	ClientOption = server.ClientOption
	// APIError is a deliberate non-2xx answer from a PDP (or gateway),
	// carrying the HTTP status and server-reported message; transport
	// failures are never APIErrors.
	APIError = server.APIError
	// ServerOption configures a Server at construction (decision
	// slow-logging, extra metrics gauges).
	ServerOption = server.Option
)

// NewServer wraps a PDP in an http.Handler.
func NewServer(p *PDP, opts ...ServerOption) *Server { return server.New(p, opts...) }

// PolicyVerificationStatus carries a -verify-policies boot-gate
// outcome into the server's health and metrics surfaces; the daemon
// republishes it on every successful policy reload.
type PolicyVerificationStatus = server.VerificationStatus

// WithServerPolicyVerification surfaces the policy boot gate on
// /v1/health ("policyVerification") and /v1/metrics (the
// msod_policy_verification_* gauges).
func WithServerPolicyVerification(v *PolicyVerificationStatus) ServerOption {
	return server.WithPolicyVerification(v)
}

// WithDecisionLog makes the server emit one structured log line per
// decision at least threshold slow (zero logs every decision), each
// carrying the trace ID and per-stage span breakdown.
func WithDecisionLog(logger *slog.Logger, threshold time.Duration) ServerOption {
	return server.WithDecisionLog(logger, threshold)
}

// WithServerGauge adds an operator-defined gauge to the server's
// /v1/metrics endpoint, read at scrape time.
func WithServerGauge(name, help string, fn func() float64) ServerOption {
	return server.WithGauge(name, help, fn)
}

// WithServerAdmissionLimit bounds concurrent decision, advisory and
// management requests: excess load is shed with 503 + Retry-After of
// retryAfter instead of queueing until everything times out. Shed
// requests never touch the PDP, and Client transparently retries them
// after the hinted delay. maxInFlight <= 0 leaves admission unbounded.
func WithServerAdmissionLimit(maxInFlight int, retryAfter time.Duration) ServerOption {
	return server.WithAdmissionLimit(maxInFlight, retryAfter)
}

// WithServerHandoff enables the resharding handoff endpoints
// (/v1/handoff/users|import|release), letting an msodgw gateway stream
// this shard's retained-ADI subtrees during elastic membership changes.
// Off by default: the import endpoint replaces per-user history
// wholesale, so only shards actually run behind a gateway should
// expose it.
func WithServerHandoff() ServerOption { return server.WithHandoff() }

// NewClient builds a client for the PDP (or msodgw gateway) at base URL.
func NewClient(base string, opts ...ClientOption) *Client {
	return server.NewClient(base, nil, opts...)
}

// WithClientTimeout bounds every request the client makes; zero or
// negative means no deadline.
func WithClientTimeout(d time.Duration) ClientOption { return server.WithTimeout(d) }

// Introspection, event-streaming and audit-sentinel types (live MSoD
// state: who is how close to which constraint limit, streamed decision
// events, and continuous audit-chain verification).
type (
	// UserStateView is one user's retained-ADI records and per-constraint
	// progress (k of m roles/privileges consumed), as served by
	// /v1/state/users/{user}.
	UserStateView = inspect.UserState
	// ContextStateView is the per-context view: every matching instance
	// and every participating user's progress, as served by
	// /v1/state/contexts/{bc}.
	ContextStateView = inspect.ContextState
	// ConstraintProgress is one (policy, bound context, rule) tuple's
	// consumption state for one user.
	ConstraintProgress = inspect.ConstraintProgress
	// DecisionEvent is one decision outcome on the event stream.
	DecisionEvent = inspect.DecisionEvent
	// EventBroker fans decision events out to subscribers over a bounded
	// ring buffer; wire it as PDPConfig.Observer and into the server with
	// WithServerEventBroker.
	EventBroker = inspect.Broker
	// EventFilter selects a subset of decision events by user, context
	// pattern and outcome.
	EventFilter = inspect.Filter
	// AuditSentinel continuously verifies the audit trail's HMAC chain in
	// the background and latches on tampering.
	AuditSentinel = inspect.Sentinel
	// AuditSentinelConfig parameterises an AuditSentinel.
	AuditSentinelConfig = inspect.SentinelConfig
	// StreamEventsOptions filter a Client.StreamEvents subscription.
	StreamEventsOptions = server.StreamEventsOptions
)

// Decision event outcomes (EventFilter / /v1/events outcome parameter).
const (
	EventOutcomeGrant = inspect.OutcomeGrant
	EventOutcomeDeny  = inspect.OutcomeDeny
)

// NewEventBroker returns a decision event broker retaining up to
// capacity recent events (<=0 uses a default).
func NewEventBroker(capacity int) *EventBroker { return inspect.NewBroker(capacity) }

// NewEventFilter builds an event filter; empty strings mean "any".
func NewEventFilter(user, ctxPattern, outcome string) (EventFilter, error) {
	return inspect.NewFilter(user, ctxPattern, outcome)
}

// NewAuditSentinel builds (but does not start) an audit-chain integrity
// sentinel over a trail directory.
func NewAuditSentinel(cfg AuditSentinelConfig) (*AuditSentinel, error) {
	return inspect.NewSentinel(cfg)
}

// WithServerEventBroker attaches a decision event broker to a server:
// /v1/events streams it and state answers gain last-trace correlation.
func WithServerEventBroker(b *EventBroker) ServerOption { return server.WithEventBroker(b) }

// WithServerSentinel attaches an audit sentinel to a server: its metric
// families join /v1/metrics and, with failClosed, a latched tamper alarm
// makes the server refuse decisions (503).
func WithServerSentinel(s *AuditSentinel, failClosed bool) ServerOption {
	return server.WithSentinel(s, failClosed)
}

// Decision provenance (explain) and SLO types: every authoritative
// decision leaves a structured evaluation trace — which policies and
// MSoD rules applied, the k-of-m counter state before and after, and
// the constraint that governed the outcome — queryable at
// /v1/explain/{requestID} (msodctl explain renders it); the SLO
// tracker scores every request against declared availability and
// latency objectives and exposes the msod_slo_* metric families.
type (
	// ExplainRecord is one decision's full provenance trace.
	ExplainRecord = explain.Record
	// ExplainRuleEval is one MSoD rule evaluation within a record.
	ExplainRuleEval = explain.RuleEval
	// ExplainRecorder is the bounded per-server ring retaining records.
	ExplainRecorder = explain.Recorder
	// SLO tracks request outcomes against declared objectives.
	SLO = obsv.SLO
	// SLOConfig declares the objectives an SLO tracker enforces.
	SLOConfig = obsv.SLOConfig
)

// ExplainPath is the provenance endpoint prefix
// (GET /v1/explain/{requestID}).
const ExplainPath = server.ExplainPath

// NewSLO builds an SLO tracker; it returns nil (a valid, disabled
// tracker) when the config declares no latency objective.
func NewSLO(cfg SLOConfig) *SLO { return obsv.NewSLO(cfg) }

// WithServerExplainCapacity sizes the server's explain ring (0 keeps
// the default; negative disables explain recording).
func WithServerExplainCapacity(n int) ServerOption { return server.WithExplainCapacity(n) }

// WithServerSLO attaches an SLO tracker to a server; its msod_slo_*
// families join /v1/metrics.
func WithServerSLO(s *SLO) ServerOption { return server.WithSLO(s) }

// Tail-sampled span retention: after a decision completes, its full
// span tree is kept if the decision was refused, errored, or slow,
// plus a deterministic 1-in-N sample of fast grants — queryable at
// GET /v1/traces/{traceID} and assembled cluster-wide by the gateway.
type (
	// TraceStore is the bounded per-server ring retaining span trees.
	TraceStore = trace.Store
	// TraceStoreConfig sizes the store and sets its sampling policy.
	TraceStoreConfig = trace.Config
	// TraceRecord is one retained span tree with its decision envelope.
	TraceRecord = trace.Record
	// TraceSpan is one timed step of a retained trace.
	TraceSpan = trace.Span
)

// TracesPath is the retained-trace endpoint prefix
// (GET /v1/traces/{traceID}).
const TracesPath = server.TracesPath

// NewTraceStore builds a tail-sampled span store. Build it once per
// process (not per policy reload) so retained traces survive SIGHUP.
func NewTraceStore(cfg TraceStoreConfig) *TraceStore { return trace.NewStore(cfg) }

// WithServerTraceStore attaches a trace store to a server, enabling
// retention and /v1/traces. A nil store leaves tracing retention off
// at zero per-decision cost.
func WithServerTraceStore(st *TraceStore) ServerOption { return server.WithTraceStore(st) }

// Advisory read-replica types: event-fed retained-ADI mirrors serving
// the advisory and state surfaces under a bounded-staleness contract.
// Authoritative decisions stay single-writer on the owning shard; a
// replica that cannot prove freshness refuses rather than answering
// stale. See docs/OPERATIONS.md for the deployment runbook.
type (
	// ReplicaConfig assembles a ReplicaFollower.
	ReplicaConfig = replica.Config
	// ReplicaFollower keeps a local retained-ADI mirror converged with
	// its owning shard (snapshot bootstrap, then resumable event
	// tailing) and answers advisory decisions from it.
	ReplicaFollower = replica.Follower
	// ReplicaStatus is a follower's health snapshot (applied sequence,
	// staleness, resync/divergence counters).
	ReplicaStatus = replica.Status
	// ReplicaServer is the replica's HTTP surface: the shard's advisory
	// and state paths with staleness stamps, plus explicit refusals for
	// everything authoritative.
	ReplicaServer = replica.Server
	// ReplicaSnapshotView is the wire form of an owner's consistent
	// (seq, retained-ADI) snapshot, served at ReplicaSnapshotPath.
	ReplicaSnapshotView = server.ReplicaSnapshot
	// FollowEventsOptions configure Client.FollowEvents: a resumable,
	// auto-reconnecting /v1/events subscription.
	FollowEventsOptions = server.FollowEventsOptions
	// AdvisoryMirror embeds a replica follower in a PEP process so
	// Enforcer.Preflight answers from local memory.
	AdvisoryMirror = pep.AdvisoryMirror
	// AdvisoryMirrorConfig assembles an AdvisoryMirror.
	AdvisoryMirrorConfig = pep.AdvisoryMirrorConfig
)

// Replica wire constants: the owner's snapshot endpoint and the
// staleness-contract headers every replica answer carries.
const (
	ReplicaSnapshotPath = server.ReplicaSnapshotPath
	ReplicaSeqHeader    = replica.ReplicaSeqHeader
	ReplicaLagHeader    = replica.ReplicaLagHeader
)

// Replica sentinel errors (test with errors.Is).
var (
	// ErrReplicaStale is a replica's refusal to answer beyond its
	// staleness bound ("ask the owner").
	ErrReplicaStale = replica.ErrStale
	// ErrReplicaDiverged reports a mirror whose replay stopped matching
	// the owner's echoes; the follower resyncs automatically.
	ErrReplicaDiverged = replica.ErrDiverged
	// ErrEventGap reports a /v1/events resume past the owner's retained
	// ring: the missed events are unrecoverable over the stream.
	ErrEventGap = server.ErrEventGap
)

// NewReplicaFollower builds (but does not start) a replica follower;
// call Run to bootstrap and tail the owner.
func NewReplicaFollower(cfg ReplicaConfig) (*ReplicaFollower, error) { return replica.New(cfg) }

// NewReplicaServer wraps a follower in the replica HTTP surface.
func NewReplicaServer(f *ReplicaFollower) *ReplicaServer { return replica.NewServer(f) }

// NewAdvisoryMirror builds an embedded advisory mirror and starts its
// follower; attach it with Enforcer.WithAdvisory and call Preflight.
func NewAdvisoryMirror(cfg AdvisoryMirrorConfig) (*AdvisoryMirror, error) {
	return pep.NewAdvisoryMirror(cfg)
}

// PEP types (the application-side enforcement function of Figure 3).
type (
	// Enforcer guards application actions with PDP decisions for one
	// subject within one business context instance.
	Enforcer = pep.Enforcer
	// Subject is the initiator an Enforcer acts for.
	Subject = pep.Subject
	// PEPMiddleware protects an http.Handler with PDP decisions.
	PEPMiddleware = pep.Middleware
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
	// WorkflowTask is one step of a process.
	WorkflowTask = workflow.Task
	// WorkflowInstance is a live run bound to a business context.
	WorkflowInstance = workflow.Instance
	// WorkflowDecider is the access control hook the workflow engine
	// consults; *Client satisfies it against a remote PDP.
	WorkflowDecider = workflow.Decider
)

// NewWorkflowInstance starts an instance of the definition in the given
// business context instance.
func NewWorkflowInstance(def *WorkflowDefinition, ctx Context) (*WorkflowInstance, error) {
	return workflow.NewInstance(def, ctx)
}

// ParseWorkflowDefinition parses and validates an XML workflow
// definition.
func ParseWorkflowDefinition(data []byte) (*WorkflowDefinition, error) {
	return workflow.ParseDefinition(data)
}

// TaxRefundWorkflow returns the paper's Example 2 process definition.
func TaxRefundWorkflow() *WorkflowDefinition { return workflow.TaxRefundDefinition() }
