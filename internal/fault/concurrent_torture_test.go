package fault_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"msod/internal/adi"
	"msod/internal/audit"
	"msod/internal/fault"
	"msod/internal/fsx"
	"msod/internal/inspect"
	"msod/internal/pdp"
	"msod/internal/policy"
	"msod/internal/rbac"
	"msod/internal/refmodel"
)

// The concurrent crash torture: TestCrashRecoveryTorture's PDP, store
// and trail on one fault-injected filesystem, driven by four goroutines
// at once until a seeded crash. Each decision carries its own
// adi.SyncWaiter, as a shard's does, so a grant's WAL sync runs outside
// the engine and commit locks and concurrent syncs overlap. A decision
// is acknowledged when DecideCtx returns without error; one that fails
// after the crash is in flight — its record may or may not have
// reached the disk. After the restart:
//
//   - the recovered retained ADI holds every acknowledged grant's
//     records, and nothing outside acknowledged ∪ in flight, and
//   - no probe is granted that the reference model, holding exactly
//     the acknowledged records, denies (zero false grants).
//
// Concurrency makes the acknowledged order a race, so the model is
// seeded with the acknowledged records rather than replaying the
// decisions; and more history only ever denies more under a policy
// without a last step in play, so the recovered ADI's in-flight
// records cannot turn a denial into a grant.

// waiterCtx is a decision's context carrying its own SyncWaiter.
type waiterCtx struct {
	context.Context
	w adi.SyncWaiter
}

func (c *waiterCtx) Value(key any) any {
	if key == adi.SyncKey {
		return &c.w
	}
	return c.Context.Value(key)
}

func TestConcurrentCrashTorture(t *testing.T) {
	seeds := 40
	if testing.Short() {
		seeds = 8
	}
	for seed := 1; seed <= seeds; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%02d", seed), func(t *testing.T) {
			t.Parallel()
			concurrentTortureOne(t, int64(seed))
		})
	}
}

// retainedRecord is the record a torture step's grant retains, once
// for each MMEP rule of the policy that lists its operation.
func retainedRecord(s tortureStep, at time.Time) adi.Record {
	r := s.request()
	return adi.Record{User: r.User, Roles: r.Roles, Operation: r.Operation, Target: r.Target, Context: r.Context, Time: at}
}

// recordsPerGrant is how many records a grant of each workload
// operation retains at most: approveCheck is in both MMEP rules.
var recordsPerGrant = map[rbac.Operation]int{"prepareCheck": 1, "approveCheck": 2, "combineResults": 1}

func concurrentTortureOne(t *testing.T, seed int64) {
	const deciders, stepsEach = 4, 60
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
	// An observer, as on a shard: decisions take the commit lock.
	victim, err := pdp.New(pdp.Config{Policy: pol, Store: ds, Trail: trail, Clock: clock,
		Observer: func(inspect.DecisionEvent) {}})
	if err != nil {
		t.Fatal(err)
	}
	ffs.InjectAt(ffs.Ops()+1+rng.Intn(4*deciders*stepsEach/3), fault.Crash)
	workloads := make([][]tortureStep, deciders)
	for i := range workloads {
		workloads[i] = genWorkload(rng, stepsEach)
	}

	var (
		mu       sync.Mutex
		acked    []adi.Record
		inFlight []adi.Record
		wg       sync.WaitGroup
	)
	for _, steps := range workloads {
		wg.Add(1)
		go func(steps []tortureStep) {
			defer wg.Done()
			for _, step := range steps {
				dec, err := victim.DecideCtx(&waiterCtx{Context: context.Background()}, step.request())
				mu.Lock()
				switch {
				case err != nil:
					if !ffs.Crashed() || !errors.Is(err, adi.ErrWriteFailed) {
						t.Errorf("decision failed, crashed %v: %v", ffs.Crashed(), err)
					}
					for range recordsPerGrant[step.op] {
						inFlight = append(inFlight, retainedRecord(step, clock()))
					}
				case dec.Allowed && dec.MSoD != nil:
					for range dec.MSoD.Recorded {
						acked = append(acked, retainedRecord(step, clock()))
					}
				}
				mu.Unlock()
				if err != nil {
					return
				}
			}
		}(steps)
	}
	wg.Wait()
	if t.Failed() {
		return
	}
	trail.Close()
	ds.Close()
	if !ffs.Crashed() {
		ffs.CrashNow()
	}

	recovered, err := adi.OpenDurable(adiDir, secret, true)
	if err != nil {
		t.Fatalf("recovery open failed: %v", err)
	}
	defer recovered.Close()
	held := map[string]int{}
	for _, r := range recovered.All() {
		held[r.String()]++
	}
	for _, r := range acked {
		if held[r.String()]--; held[r.String()] < 0 {
			t.Fatalf("acknowledged record %s lost in the crash", r)
		}
	}
	for _, r := range inFlight {
		if held[r.String()] > 0 {
			held[r.String()]--
		}
	}
	for r, n := range held {
		if n > 0 {
			t.Fatalf("recovered %d× %s, neither acknowledged nor in flight", n, r)
		}
	}

	shadow := newShadow(t, pol)
	for _, r := range acked {
		if _, err := shadow.Record(refmodel.Record(r)); err != nil {
			t.Fatal(err)
		}
	}
	recPDP, err := pdp.New(pdp.Config{Policy: pol, Store: recovered, Clock: clock})
	if err != nil {
		t.Fatal(err)
	}
	for _, probe := range probeSteps() {
		rd, rerr := recPDP.Advise(probe.request())
		sd, serr := shadow.Peek(probe.shadowed())
		if rerr != nil || serr != nil {
			t.Fatalf("probe %+v: advise errors %v / %v", probe, rerr, serr)
		}
		if rd.Allowed && !sd.Grant {
			t.Fatalf("probe %+v: false grant after crash recovery; the acknowledged history denies it (%s)", probe, sd.Rule)
		}
	}

	rdr, err := audit.NewReader(trailDir, trailKey)
	if err == nil {
		_, err = rdr.Verify()
	}
	if err != nil && !errors.Is(err, audit.ErrTruncated) {
		t.Fatalf("audit chain after crash: %v (only clean truncation is acceptable)", err)
	}
}
