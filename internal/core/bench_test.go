package core

import (
	"fmt"
	"testing"

	"msod/internal/adi"
	"msod/internal/bctx"
)

// BenchmarkEvaluate is the engine's share of a decision in the shapes
// inproc_mixed sends it, so -benchmem reports the bytes beside the
// allocations TestEvaluateAllocs pins: a bank grant in a period whose
// name is bound already, an MMER denial repeated in its period (the
// period's shared denial), a bank grant
// opening a period of its own, and a tax approval and a tax denial in
// a running process. The requests run
// in batches of evalBatch; between batches, outside the timer, every
// instance is closed and the next batch's is prepared, so the retained
// ADI stays the size of one batch however long the benchmark runs.
func BenchmarkEvaluate(b *testing.B) {
	const evalBatch = 256
	closeAll := func(e *Engine, pattern string) {
		ops := []adi.Op{{Kind: adi.OpClose, Bound: bctx.MustParse(pattern)}}
		if err := e.Apply(ops, func(adi.Op, adi.Effect) {}); err != nil {
			b.Fatal(err)
		}
	}
	for _, bc := range []struct {
		name     string
		policies []Policy
		family   string                 // the pattern that closes every instance of the row
		prepare  func(e *Engine, k int) // brings batch k's instance into its starting state
		request  func(k, i int) Request
		want     Effect
	}{
		{
			name: "bank grant, period bound", policies: bankPolicies(), family: "Branch=*, Period=*",
			prepare: func(e *Engine, k int) {
				mustEvaluate(b, e, bankReq("opener", "Teller", "HandleCash", "York", fmt.Sprint("p", k)), Grant)
			},
			request: func(k, i int) Request { return bankReq("alice", "Teller", "HandleCash", "York", fmt.Sprint("p", k)) },
			want:    Grant,
		},
		{
			name: "MMER deny, repeated in its period", policies: bankPolicies(), family: "Branch=*, Period=*",
			prepare: func(e *Engine, k int) {
				mustEvaluate(b, e, bankReq("alice", "Teller", "HandleCash", "York", fmt.Sprint("p", k)), Grant)
				mustEvaluate(b, e, bankReq("alice", "Auditor", "Audit", "Leeds", fmt.Sprint("p", k)), Deny)
			},
			request: func(k, i int) Request { return bankReq("alice", "Auditor", "Audit", "Leeds", fmt.Sprint("p", k)) },
			want:    Deny,
		},
		{
			name: "bank grant, fresh period", policies: bankPolicies(), family: "Branch=*, Period=*",
			request: func(k, i int) Request {
				return bankReq("alice", "Teller", "HandleCash", "York", fmt.Sprintf("p%d-%d", k, i))
			},
			want: Grant,
		},
		{
			name: "tax grant", policies: taxPolicies(), family: "TaxOffice=*, taxRefundProcess=*",
			prepare: func(e *Engine, k int) {
				mustEvaluate(b, e, taxReq("c1", "Clerk", "prepareCheck", checkTarget, "Leeds", fmt.Sprint("t", k)), Grant)
			},
			request: func(k, i int) Request {
				return taxReq(fmt.Sprint("m", i), "Manager", "approve/disapproveCheck", checkTarget, "Leeds", fmt.Sprint("t", k))
			},
			want: Grant,
		},
		{
			name: "tax deny", policies: taxPolicies(), family: "TaxOffice=*, taxRefundProcess=*",
			prepare: func(e *Engine, k int) {
				mustEvaluate(b, e, taxReq("c1", "Clerk", "prepareCheck", checkTarget, "Leeds", fmt.Sprint("t", k)), Grant)
			},
			request: func(k, i int) Request {
				return taxReq("c1", "Clerk", "confirmCheck", auditTarget, "Leeds", fmt.Sprint("t", k))
			},
			want: Deny,
		},
	} {
		b.Run(bc.name, func(b *testing.B) {
			e, err := NewEngine(adi.NewStore(), bc.policies)
			if err != nil {
				b.Fatal(err)
			}
			reqs := make([]Request, evalBatch)
			b.ReportAllocs()
			b.ResetTimer()
			for n := 0; n < b.N; n++ {
				i := n % evalBatch
				if i == 0 {
					b.StopTimer()
					k := n / evalBatch
					closeAll(e, bc.family)
					if bc.prepare != nil {
						bc.prepare(e, k)
					}
					for j := range reqs {
						reqs[j] = bc.request(k, j)
					}
					b.StartTimer()
				}
				dec, err := e.Evaluate(reqs[i])
				if err != nil || dec.Effect != bc.want {
					b.Fatalf("request %d: %v, %v; want %v", n, dec.Effect, err, bc.want)
				}
			}
		})
	}
}
