# msod — build/test/bench entry points.

GO ?= go

.PHONY: all build test test-race allocs cover bench benchmark-check fuzz chaos elastic advisory examples lint clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# The allocation budgets of a served decision (testing.AllocsPerRun
# tables, every allocation named): the §4.2 hot path (core, adi, bctx,
# rbac), the durable store's logged append (adi: only the variadic slice
# a direct call builds — the record's one role is the store's shared
# slice) and the layers around it — spans (obsv), the trail append
# (audit: none), the CVS's check of one credential (credential: only the
# validated roles), the PDP's pipeline around the engine (pdp), the whole handler
# with and without the default telemetry (server) and the gateway in
# front of it, ring lookup included (cluster). `make test` runs them too; this target is the quick check
# after touching any of them. It also pins the bytes that hand-built
# text saves allocations on (TestDenialTextIsFmtText: a denial's text is
# fmt's), the one object an evaluation returns, each of its shapes in a
# size class no larger than what it replaced (TestDecisionSize), and the
# shard's one per-decision context in its 384-byte size class
# (TestDecisionContextSize). Never under -race: the detector allocates,
# and the tests skip themselves there.
allocs:
	$(GO) test -run 'Allocs|^TestDenialTextIsFmtText$$|^TestDecisionSize$$|^TestDecisionContextSize$$' ./internal/core ./internal/adi ./internal/bctx ./internal/rbac \
		./internal/obsv ./internal/audit ./internal/credential ./internal/pdp ./internal/server ./internal/cluster

cover:
	$(GO) test -coverprofile=cover.out ./...
	$(GO) tool cover -func=cover.out | tail -1

bench:
	$(GO) test -bench=. -benchmem ./...

# benchmark/ is its own module, so `go build ./... && go test ./...`
# neither compiles nor tests it: this is what catches a change to the
# packages it imports (internal/cluster, server, pdp, ...) breaking the
# BENCHMARK.json gate. The smoke run drives every workload end to end
# at a scaled-down size and checks every decision against the oracle.
# Both steps always run — a failing module test does not hide the
# smoke's verdict — and the target fails if either fails.
benchmark-check:
	@status=0; \
	(cd benchmark && $(GO) vet ./... && $(GO) test ./...) || status=1; \
	bash benchmark/run.sh -smoke || status=1; \
	exit $$status

# A short fuzz pass over every fuzz target, FUZZTIME each (seeds always
# run under `make test`). FuzzAppendWALEntry and FuzzAppendEvent hold the
# hand-written WAL and trail lines to json.Marshal's bytes,
# FuzzCredentialPayload the signed credential payload,
# FuzzIdempotentReplay a replayed answer to the first answer's bytes
# and both to WriteJSON's, FuzzAnswerWriter the shard's answer writer
# (jsonx with HTML escaping off) to WriteJSON's; FuzzTrailWalk holds a trail walk advanced while edited
# segments grow to one from-genesis Verify (count and error class);
# FuzzEvaluate is differential too: the reference model
# (internal/refmodel) sees every request the engine evaluates, and the
# effect and the retained-record count must agree after each.
FUZZTIME ?= 30s

fuzz:
	$(GO) test -run '^$$' -fuzz='^FuzzParse$$' -fuzztime=$(FUZZTIME) ./internal/bctx
	$(GO) test -run '^$$' -fuzz='^FuzzMatchBind$$' -fuzztime=$(FUZZTIME) ./internal/bctx
	$(GO) test -run '^$$' -fuzz='^FuzzParseMSoDPolicySet$$' -fuzztime=$(FUZZTIME) ./internal/policy
	$(GO) test -run '^$$' -fuzz='^FuzzParseRBACPolicy$$' -fuzztime=$(FUZZTIME) ./internal/policy
	$(GO) test -run '^$$' -fuzz='^FuzzDecodeDecisionRequest$$' -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz='^FuzzIdempotentReplay$$' -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz='^FuzzAnswerWriter$$' -fuzztime=$(FUZZTIME) ./internal/server
	$(GO) test -run '^$$' -fuzz='^FuzzEvaluate$$' -fuzztime=$(FUZZTIME) ./internal/core
	$(GO) test -run '^$$' -fuzz='^FuzzPolicyCheck$$' -fuzztime=$(FUZZTIME) ./internal/policycheck
	$(GO) test -run '^$$' -fuzz='^FuzzAppendWALEntry$$' -fuzztime=$(FUZZTIME) ./internal/adi
	$(GO) test -run '^$$' -fuzz='^FuzzAppendEvent$$' -fuzztime=$(FUZZTIME) ./internal/audit
	$(GO) test -run '^$$' -fuzz='^FuzzTrailWalk$$' -fuzztime=$(FUZZTIME) ./internal/audit
	$(GO) test -run '^$$' -fuzz='^FuzzCredentialPayload$$' -fuzztime=$(FUZZTIME) ./internal/credential

# Full fault-injection torture: power-loss crash-recovery schedules
# (sequential, and four deciders whose WAL syncs overlap — three more
# times over, for more interleavings), chaotic transport (with carried activations and closes), overload
# shedding, degraded read-only mode, the idempotency cache's waiters
# (ten times over), and, twenty times each, the exemplar slots and the
# trace's span bookkeeping under concurrent writers, the engine's
# commit buffer, which every decision reuses, under concurrent
# decisions, advisories and ops, and the engine's shared plain grants
# and denials under concurrent deciders of two engines.
chaos:
	$(GO) test -race -count=1 ./internal/fault
	$(GO) test -race -count=3 -run 'TestConcurrentCrashTorture' ./internal/fault
	$(GO) test -race -run 'TestAdmission|TestClientRetriesShedRequest|TestDegradedReadOnlyLatch' ./internal/server
	$(GO) test -race -count=10 -run 'Idem|Idempotency' ./internal/server
	$(GO) test -race -run 'TestClusterShed|TestClusterChaoticTransport|TestBreaker' ./internal/cluster
	$(GO) test -race -count=20 -run 'TestClusterPEPHangUpAfterFirstStep|TestGatewayDecisionsShareADeadline' ./internal/cluster
	$(GO) test -race -count=20 -run 'TestObserveExemplarConcurrent' ./internal/obsv
	$(GO) test -race -count=20 -run '^(TestTraceEndFromOtherGoroutines|TestTraceMatchesReferenceOnScripts)$$' ./internal/obsv
	$(GO) test -race -count=20 -run 'TestConcurrentCommitBuffer|TestPlainGrantsAreShared|TestDenialsAreShared' ./internal/core

# Elastic membership smoke: the join/drain/remove lifecycle and
# context-activation unit suite (the activation carried to each peer,
# a FirstStep acked with a peer Down, a gateway restarted with
# activations pending, the re-activation after a user or age purge), a
# request steered to a shard its credentials' holder does not own
# (every shard, -handoff or not, refuses it 421 before anything
# commits, so no false grant follows), the handoff window (every key
# the next ring moves is refused until cutover, a user first seen in
# the window included: real -handoff shards joining and draining), the
# shard's handoff import and release (an import releases before it
# records, so the instances it empties keep running), the check that
# every out-of-band store change goes through pdp.PDP.Apply, the
# live 2→3→2 scale-out/drain integration against real shards, and the
# 60-seed reshard torture (random join/drain/crash schedules checked
# against the reference model as the shadow).
elastic:
	$(GO) test -race -count=1 -run 'TestCluster(Join|Drain|Concurrent|Admission|Topology|Status|Metrics|Purge|FirstStepWithPeerDown|GatewayRestart|Steered)|TestActivation|TestJoinSeeds' ./internal/cluster
	$(GO) test -race -count=1 -run 'TestHandoff' ./internal/server
	$(GO) test -race -count=1 -run 'TestStoreMutatedOnlyThroughOneEntry' .
	$(GO) test -race -count=1 -run 'TestElastic' ./internal/integration
	$(GO) test -race -count=1 -run 'TestElastic' ./internal/fault

# Advisory path: owner-served, side-effect free. Advice is answered by
# the owning shard's PDP alone, over the client, through the gateway
# with the PEP's bytes, and as a PEP's Preflight; it records nothing,
# explains nothing and purges nothing.
advisory:
	$(GO) test -race -count=1 -run '^(TestRemoteAdvice|TestExplainAdvisoryNotRecorded|TestAdviseHasNoSideEffects|TestGatewayForwardsThePEPsBytes)$$|^TestPreflight' ./internal/server ./internal/pdp ./internal/cluster ./internal/pep

examples:
	$(GO) run ./examples/quickstart
	$(GO) run ./examples/bankaudit
	$(GO) run ./examples/taxrefund
	$(GO) run ./examples/vofederation
	$(GO) run ./examples/procurement

lint:
	test -z "$$(gofmt -l .)" || { gofmt -l .; exit 1; }
	$(GO) vet ./...
	$(GO) run ./cmd/msodvet ./...
	$(GO) run ./cmd/msodvet -policies policies
	$(GO) test -count=1 -run '^(TestModuleLayers|TestCodeSize|TestDaemonsLinkOnlyWhatTheyServe|TestDaemonsAssembleThroughNode)$$' .

clean:
	rm -f cover.out
