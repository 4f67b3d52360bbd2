package adi

import (
	"math/rand"
	"time"

	"msod/internal/bctx"
	"msod/internal/rbac"
)

// walHistory is a seeded history of every op kind a durable store logs
// — multi-record appends, activations, context purges (the universal
// pattern included), user purges, age purges and releases — over text
// that exercises every JSON escaping rule and times in three zones. The
// store in testdata/parent-wal was written by applying walHistory(6, 90)
// at the commit before the hand-written WAL appender, so this function
// must not change.
func walHistory(seed int64, n int) []Op {
	r := rand.New(rand.NewSource(seed))
	users := []rbac.UserID{"alice", "<bob>&co", "ca\u2028rol", `dave "q" \`, "\u65e5\u672c"}
	roles := []rbac.RoleName{"Teller", "Auditor", "A&B\u2029"}
	ctxs := []string{
		"Branch=York, Period=2006", "Branch=<b>, Period=2006", "Branch=York, Period=p\u2029q",
		"TaxOffice=o1, taxRefundProcess=x1", "TaxOffice=o1, taxRefundProcess=x2",
	}
	patterns := []string{
		"Branch=*, Period=2006", "TaxOffice=o1, taxRefundProcess=!", "Branch=York",
		"TaxOffice=o1, taxRefundProcess=x1", "",
	}
	zones := []*time.Location{time.UTC, time.FixedZone("", -7*3600), time.FixedZone("CET", 3600)}
	base := time.Date(2006, 7, 1, 12, 0, 0, 0, time.UTC)
	at := func(step int) time.Time {
		t := base.Add(time.Duration(step)*time.Minute + time.Duration(r.Intn(1000)))
		return t.In(zones[r.Intn(len(zones))])
	}
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		var op Op
		switch k := r.Intn(10); {
		case k < 4:
			recs := make([]Record, 1+r.Intn(3))
			for j := range recs {
				var rs []rbac.RoleName
				switch r.Intn(3) {
				case 1:
					rs = []rbac.RoleName{}
				case 2:
					rs = roles[:1+r.Intn(len(roles))]
				}
				recs[j] = Record{
					User:      users[r.Intn(len(users))],
					Roles:     rs,
					Operation: "op<&>",
					Target:    "till\n",
					Context:   bctx.MustParse(ctxs[r.Intn(len(ctxs))]),
					Time:      at(i),
				}
			}
			op = Op{Kind: OpRecord, Records: recs}
		case k == 4:
			op = Op{Kind: OpActivate, Bound: bctx.MustParse(ctxs[r.Intn(len(ctxs))]), Time: at(i)}
		case k == 5:
			op = Op{Kind: OpClose, Bound: bctx.MustParse(patterns[r.Intn(len(patterns))])}
		case k == 6:
			op = Op{Kind: OpPurgeUser, User: users[r.Intn(len(users))]}
		case k == 7:
			op = Op{Kind: OpPurgeBefore, Time: at(i - 8)}
		default:
			op = Op{Kind: OpRelease, User: users[r.Intn(len(users))], Time: at(i)}
		}
		ops = append(ops, op)
	}
	return ops
}
