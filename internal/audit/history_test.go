package audit

import (
	"math/rand"
	"time"
)

// trailHistory is a fixed run of events over every escaping rule of
// encoding/json (HTML characters, quotes and backslashes, short and
// \u00XX control escapes, U+2028/U+2029, invalid UTF-8), absent, empty
// and several roles, and times in three zones down to the nanosecond.
// testdata/parent-trail was written from trailHistory() with segments
// of four entries under parentTrailKey by the commit before the
// hand-written event appender, so this function must not change.
func trailHistory() []Event {
	pieces := []string{
		"", "alice", "Branch=York, Period=2006", `<script>&amp;</script>`, `say "hi"\n`,
		"tab\there", "line\nbreak", "nul\x00ctl\x1f", "sep\u2028and\u2029", "bad\xff\xfeutf8",
		"日本語", "{}[],:", "\b\f\r\x7f",
	}
	times := []time.Time{
		{},
		time.Unix(0, 1).UTC(),
		time.Date(2006, 7, 1, 12, 0, 0, 999_999_999, time.UTC),
		time.Date(2006, 7, 1, 12, 0, 0, 0, time.FixedZone("", -7*3600)),
		time.Date(2006, 7, 1, 12, 0, 0, 500, time.FixedZone("IST", 5*3600+30*60)),
	}
	r := rand.New(rand.NewSource(1))
	str := func() string {
		s := ""
		for n := r.Intn(3); n >= 0; n-- {
			s += pieces[r.Intn(len(pieces))]
		}
		return s
	}
	events := make([]Event, 24)
	for i := range events {
		ev := Event{
			Time:            times[r.Intn(len(times))],
			User:            str(),
			Operation:       str(),
			Target:          str(),
			Context:         str(),
			Effect:          []string{EffectGrant, EffectDeny, str()}[r.Intn(3)],
			MatchedPolicies: r.Intn(3),
		}
		if r.Intn(2) == 1 {
			ev.TraceID = "0af7651916cd43dd8448eb211c80319c"
		}
		switch r.Intn(3) {
		case 1:
			ev.Roles = []string{}
		case 2:
			for n := 1 + r.Intn(3); n > 0; n-- {
				ev.Roles = append(ev.Roles, str())
			}
		}
		events[i] = ev
	}
	return events
}

// parentTrailKey is the key testdata/parent-trail is chained under.
var parentTrailKey = []byte("parent-trail-key")
