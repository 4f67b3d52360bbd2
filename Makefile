# msod — build/test/bench entry points.

GO ?= go

.PHONY: all build test test-race allocs cover bench benchmark-check fuzz chaos elastic replica examples lint clean

all: build test

build:
	$(GO) build ./...

test:
	$(GO) test ./...

test-race:
	$(GO) test -race ./...

# The allocation budgets of a served decision (testing.AllocsPerRun
# tables, every allocation named): the §4.2 hot path (core, adi, bctx,
# rbac) and the layers around it — spans (obsv), the trail append
# (audit), the PDP's pipeline around the engine (pdp), the whole handler
# with and without the default telemetry (server) and the gateway in
# front of it, ring lookup included (cluster). `make test` runs them too; this target is the quick check
# after touching any of them. Never under -race: the detector
# allocates, and the tests skip themselves there.
allocs:
	$(GO) test -run 'Allocs' ./internal/core ./internal/adi ./internal/bctx ./internal/rbac \
		./internal/obsv ./internal/audit ./internal/pdp ./internal/server ./internal/cluster

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
benchmark-check:
	cd benchmark && $(GO) vet ./... && $(GO) test ./...
	bash benchmark/run.sh -smoke

# Short fuzz pass over every fuzz target (seeds always run under `make test`).
fuzz:
	$(GO) test -fuzz=FuzzParse -fuzztime=30s ./internal/bctx
	$(GO) test -fuzz=FuzzMatchBind -fuzztime=30s ./internal/bctx
	$(GO) test -fuzz=FuzzParseMSoDPolicySet -fuzztime=30s ./internal/policy
	$(GO) test -fuzz=FuzzParseRBACPolicy -fuzztime=30s ./internal/policy
	$(GO) test -fuzz=FuzzDecodeDecisionRequest -fuzztime=30s ./internal/server

# Full fault-injection torture: power-loss crash-recovery schedules,
# chaotic transport (with carried activations and closes), overload
# shedding, degraded read-only mode.
chaos:
	$(GO) test -race -count=1 ./internal/fault
	$(GO) test -race -run 'TestAdmission|TestClientRetriesShedRequest|TestDegradedReadOnlyLatch' ./internal/server
	$(GO) test -race -run 'TestClusterShed|TestClusterChaoticTransport|TestBreaker' ./internal/cluster

# Elastic membership smoke: the join/drain/remove lifecycle and
# context-activation unit suite (the activation carried to each peer,
# a FirstStep acked with a peer Down, a gateway restarted with
# activations pending, the re-activation after a user or age purge), the
# shard's handoff import and release (an import releases before it
# records, so the instances it empties keep running), the check that
# every out-of-band store change goes through pdp.PDP.Apply, the
# live 2→3→2 scale-out/drain integration against real shards, and the
# 60-seed reshard torture (random join/drain/crash schedules checked
# against a shadow PDP).
elastic:
	$(GO) test -race -count=1 -run 'TestCluster(Join|Drain|Concurrent|Admission|Topology|Status|Metrics|Purge|FirstStepWithPeerDown|GatewayRestart)|TestActivation|TestJoinSeeds' ./internal/cluster
	$(GO) test -race -count=1 -run 'TestHandoff' ./internal/server
	$(GO) test -race -count=1 -run 'TestStoreMutatedOnlyThroughOneEntry' .
	$(GO) test -race -count=1 -run 'TestElastic' ./internal/integration
	$(GO) test -race -count=1 -run 'TestElasticReshardTorture' ./internal/fault

# Advisory read-replica tier smoke: deterministic mirror replay (every
# non-grant event is an op's, a handoff import's a resync) and the
# bounded-staleness contract (unit + gateway routing + integration),
# the embedded PEP preflight, and replica-served advice under 8
# concurrent clients after a seeded bank history, every answer the
# owner's own (TestClusterReplicaTierServesConvergedAdvice).
replica:
	$(GO) test -race -count=1 ./internal/replica
	$(GO) test -race -count=1 -run 'TestGatewayAdvice|TestGatewayReplicaPool|TestGatewayStateUserReplica|TestGatewayDecisionsNeverRoute|TestConfigReplica' ./internal/cluster
	$(GO) test -race -count=1 -run 'TestPreflight' ./internal/pep
	$(GO) test -race -count=1 -run 'TestClusterReplica' ./internal/integration

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

clean:
	rm -f cover.out
