package adi

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"testing"
	"time"

	"msod/internal/bctx"
	"msod/internal/rbac"
)

// walEntryOf is the walEntry op's line decodes to, built as the store
// built it before appendWALEntry wrote the line by hand: the records
// through toWire, the pattern through Name.String.
func walEntryOf(op Op) walEntry {
	switch op.Kind {
	case OpRecord:
		wire := make([]wireRecord, len(op.Records))
		for i, r := range op.Records {
			wire[i] = toWire(r)
		}
		return walEntry{Op: "append", Records: wire}
	case OpClose:
		return walEntry{Op: "purgeContext", Pattern: op.Bound.String()}
	case OpPurgeUser:
		return walEntry{Op: "purgeUser", User: string(op.User)}
	}
	before := op.Time
	return walEntry{Op: "purgeBefore", Before: &before}
}

// fuzzTime builds the time a fuzz input names: the zero time, a UTC,
// fixed-zone or local time at sec/nsec, or time.Now() — local, with a
// monotonic reading, which JSON does not carry.
func fuzzTime(zone uint8, sec, nsec int64, offset int32) time.Time {
	switch zone % 5 {
	case 0:
		return time.Time{}
	case 1:
		return time.Unix(sec, nsec).UTC()
	case 2:
		return time.Unix(sec, nsec).In(time.FixedZone("", int(offset)))
	case 3:
		return time.Unix(sec, nsec)
	}
	return time.Now()
}

// The escaping pieces of the audit package's entry property
// (entry_quick_test.go), plus the short escapes and a valid U+FFFD.
var escapingPieces = []string{
	"", "alice", "Branch=York, Period=2006", `<script>&amp;</script>`, `say "hi"\n`,
	"tab\there", "line\nbreak", "nul\x00ctl\x1f", "sep\xe2\x80\xa8and\xe2\x80\xa9", "bad\xff\xfeutf8",
	"日本語", "{}[],:", "\b\f\r\x7f", "\xef\xbf\xbd",
}

// FuzzAppendWALEntry: the line appendWALEntry writes for an op is the
// json.Marshal of the walEntry the store marshalled before it wrote
// lines by hand — errors included — appended after what dst held; and,
// for text the log can restore, the line decodes to the op.
func FuzzAppendWALEntry(f *testing.F) {
	const (
		nsTime    = int64(1_151_755_200) // 2006-07-01T12:00:00Z
		year10000 = int64(253_402_300_800)
	)
	for _, s := range escapingPieces {
		f.Add(uint8(0), s, s, s, "Branch", s, uint8(1), uint8(2), uint8(1), nsTime, int64(999_999_999), int32(0))
		f.Add(uint8(2), s, "R", "op", s, "v", uint8(0), uint8(0), uint8(1), nsTime, int64(0), int32(0))
		f.Add(uint8(3), s, "R", "op", "Branch", "York", uint8(0), uint8(0), uint8(1), nsTime, int64(0), int32(0))
	}
	// The zero time, a nanosecond UTC time, a fixed zone, local time, and
	// time.Now() with its monotonic reading.
	for zone := uint8(0); zone < 5; zone++ {
		f.Add(uint8(0), "alice", "Teller", "HandleCash", "Branch", "York", uint8(0), uint8(2), zone, nsTime, int64(1), int32(-7*3600))
		f.Add(uint8(4), "", "", "", "", "", uint8(0), uint8(0), zone, nsTime, int64(1), int32(5*3600+1800))
	}
	f.Add(uint8(0), "alice", "Teller", "HandleCash", "Branch", "York", uint8(0), uint8(2), uint8(1), year10000, int64(0), int32(0))
	f.Add(uint8(4), "", "", "", "", "", uint8(0), uint8(0), uint8(2), nsTime, int64(0), int32(25*3600))
	f.Add(uint8(0), "alice", "Teller", "HandleCash", "Branch", "York", uint8(0), uint8(0), uint8(1), nsTime, int64(0), int32(0)) // nil roles
	f.Add(uint8(0), "alice", "Teller", "HandleCash", "Branch", "York", uint8(0), uint8(1), uint8(1), nsTime, int64(0), int32(0)) // empty roles
	f.Add(uint8(0), "alice", "Teller", "HandleCash", "Branch", "York", uint8(2), uint8(2), uint8(1), nsTime, int64(0), int32(0)) // three records
	f.Add(uint8(1), "alice", "Teller", "HandleCash", "Branch", "York", uint8(1), uint8(2), uint8(1), nsTime, int64(0), int32(0)) // activation
	f.Add(uint8(2), "", "", "", "", "", uint8(0), uint8(0), uint8(1), nsTime, int64(0), int32(0))                                // universal pattern
	f.Add(uint8(2), "", "", "", "Branch", "*", uint8(0), uint8(0), uint8(1), nsTime, int64(0), int32(0))

	f.Fuzz(func(t *testing.T, kind uint8, user, role, text, ctype, cvalue string, nrec, roles, zone uint8, sec, nsec int64, offset int32) {
		at := fuzzTime(zone, sec, nsec, offset)
		name := bctx.Universal
		if ctype != "" {
			var err error
			if name, err = bctx.NewName(bctx.Component{Type: ctype, Value: cvalue}, bctx.Component{Type: "Period", Value: "p<&>"}); err != nil {
				name = bctx.MustParse("Branch=York, Period=p<&>")
			}
		}
		var op Op
		switch kind % 5 {
		case 0, 1:
			var rs []rbac.RoleName
			switch roles % 3 {
			case 1:
				rs = []rbac.RoleName{}
			case 2:
				rs = []rbac.RoleName{rbac.RoleName(role), rbac.RoleName(text)}
			}
			op.Kind = OpRecord
			if kind%5 == 1 {
				op.Records = append(op.Records, newActivationRecord(name, at))
			}
			for i := 0; i <= int(nrec%3); i++ {
				op.Records = append(op.Records, Record{
					User: rbac.UserID(user), Roles: rs, Operation: rbac.Operation(text),
					Target: rbac.Object(role), Context: name, Time: at,
				})
			}
		case 2:
			op = Op{Kind: OpClose, Bound: name}
		case 3:
			op = Op{Kind: OpPurgeUser, User: rbac.UserID(user)}
		case 4:
			op = Op{Kind: OpPurgeBefore, Time: at}
		}

		want, wantErr := json.Marshal(walEntryOf(op))
		got, err := appendWALEntry([]byte("xx"), op)
		if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
			t.Fatalf("op %+v: appendWALEntry error %v, json.Marshal error %v", op, err, wantErr)
		}
		if err != nil {
			if string(got) != "xx" {
				t.Fatalf("op %+v: a refused entry left %q behind", op, got)
			}
			return
		}
		if !bytes.Equal(got[2:], want) || string(got[:2]) != "xx" {
			t.Fatalf("op %+v:\nappendWALEntry %s\njson.Marshal      %s", op, got, want)
		}
		if loggable(op) != nil {
			return
		}
		var e walEntry
		if err := json.Unmarshal(want, &e); err != nil {
			t.Fatal(err)
		}
		back, err := e.op()
		if err != nil || !sameOp(back, op) {
			t.Fatalf("op %+v decodes to %+v, %v", op, back, err)
		}
	})
}

// sameOp reports whether two ops of the logged kinds are equal, times
// as instants.
func sameOp(a, b Op) bool {
	return a.Kind == b.Kind && sameRecords(a.Records, b.Records) && a.Bound.Equal(b.Bound) &&
		a.User == b.User && a.Time.Equal(b.Time)
}

// sameRecords reports whether two record lists are equal record for
// record, times as instants: a time's zone and monotonic reading are
// not logged, its instant to the nanosecond is.
func sameRecords(a, b []Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.User != y.User || x.Operation != y.Operation || x.Target != y.Target ||
			!x.Context.Equal(y.Context) || !x.Time.Equal(y.Time) || len(x.Roles) != len(y.Roles) {
			return false
		}
		for j := range x.Roles {
			if x.Roles[j] != y.Roles[j] {
				return false
			}
		}
	}
	return true
}

// TestKeycheckEntry: the key-check marker is the walEntry it always
// was, and an op kind the log has no entry for is refused.
func TestKeycheckEntry(t *testing.T) {
	want, err := json.Marshal(walEntry{Op: "keycheck"})
	if err != nil || string(want) != keycheckEntry {
		t.Fatalf("json.Marshal(keycheck) = %s, %v; the marker is %s", want, err, keycheckEntry)
	}
	for _, kind := range []OpKind{0, OpActivate, OpRelease} {
		if got, err := appendWALEntry(nil, Op{Kind: kind}); err == nil || len(got) != 0 {
			t.Errorf("kind %d: %q, %v; want an error and nothing written", kind, got, err)
		}
	}
}

// walPlaintexts returns the JSON of every entry of the WAL in dir,
// opened with the store's key.
func walPlaintexts(t *testing.T, ds *DurableStore, dir string) [][]byte {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(dir, durableWALName))
	if err != nil {
		t.Fatal(err)
	}
	var out [][]byte
	for _, line := range bytes.SplitAfter(raw, []byte("\n")) {
		if len(line) == 0 {
			continue
		}
		sealed, err := base64.StdEncoding.DecodeString(string(bytes.TrimSuffix(line, []byte("\n"))))
		if err != nil {
			t.Fatal(err)
		}
		ns := ds.aead.NonceSize()
		plain, err := ds.aead.Open(nil, sealed[:ns], sealed[ns:], nil)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, plain)
	}
	return out
}

// TestOnlyPurgeBeforeLinesCarryBefore: the cutoff is a member of the
// purgeBefore entry alone. Every line used to carry the zero time as
// "before", because omitempty never omits a struct.
func TestOnlyPurgeBeforeLinesCarryBefore(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir)
	ctx := bctx.MustParse("Branch=York, Period=2006")
	for _, op := range []Op{
		{Kind: OpRecord, Records: []Record{rec("alice", "Teller", "op", "t", ctx.String())}},
		{Kind: OpActivate, Bound: bctx.MustParse("Branch=Leeds, Period=2006"), Time: eqEpoch},
		{Kind: OpClose, Bound: ctx},
		{Kind: OpPurgeUser, User: "alice"},
		{Kind: OpPurgeBefore, Time: eqEpoch},
	} {
		if _, err := Apply(ds, op); err != nil {
			t.Fatal(err)
		}
	}
	lines := walPlaintexts(t, ds, dir)
	if len(lines) != 5 {
		t.Fatalf("%d WAL lines, want 5", len(lines))
	}
	for _, line := range lines {
		var members map[string]json.RawMessage
		if err := json.Unmarshal(line, &members); err != nil {
			t.Fatal(err)
		}
		_, has := members["before"]
		if purgeBefore := string(members["op"]) == `"purgeBefore"`; has != purgeBefore {
			t.Errorf("line %s: before member present %v", line, has)
		}
	}
	if got, want := string(lines[4]), `{"op":"purgeBefore","before":"2006-07-01T12:00:00Z"}`; got != want {
		t.Errorf("purgeBefore line %s, want %s", got, want)
	}
}

// liveAndActivations returns the store's records and its activations,
// ordered by instance.
func liveAndActivations(ds *DurableStore) ([]Record, []Record) {
	acts := ds.mem.activations()
	sort.Slice(acts, func(i, j int) bool { return acts[i].Context.Key() < acts[j].Context.Key() })
	return ds.All(), acts
}

// checkSameState fails unless two stores hold the same records and the
// same activations, record for record.
func checkSameState(t *testing.T, what string, got, want *DurableStore) {
	t.Helper()
	gotRecs, gotActs := liveAndActivations(got)
	wantRecs, wantActs := liveAndActivations(want)
	if !sameRecords(gotRecs, wantRecs) {
		t.Errorf("%s: records\n%v\nwant\n%v", what, gotRecs, wantRecs)
	}
	if !sameRecords(gotActs, wantActs) {
		t.Errorf("%s: activations\n%v\nwant\n%v", what, gotActs, wantActs)
	}
}

// applyHistory applies the ops to the store, compacting it after the
// first compactAt of them when compactAt > 0.
func applyHistory(t *testing.T, ds *DurableStore, ops []Op, compactAt int) {
	t.Helper()
	for i, op := range ops {
		if i == compactAt && compactAt > 0 {
			if err := ds.Compact(); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := Apply(ds, op); err != nil {
			t.Fatalf("op %d %+v: %v", i, op, err)
		}
	}
}

// TestLiveStateIsReopenedState: the store applies each op from the
// records in hand and recovery from the line it decodes, so the two
// must agree. A seeded history of every op kind, compacted halfway,
// reopens to exactly the live records and activations.
func TestLiveStateIsReopenedState(t *testing.T) {
	ops := walHistory(6, 90)
	kinds := map[OpKind]bool{}
	universal := false
	for _, op := range ops {
		kinds[op.Kind] = true
		universal = universal || op.Kind == OpClose && op.Bound.IsUniversal()
	}
	if len(kinds) != 6 || !universal {
		t.Fatalf("history covers kinds %v, universal close %v; want all six and one", kinds, universal)
	}
	dir := t.TempDir()
	live := openDurable(t, dir)
	applyHistory(t, live, ops, len(ops)/2)
	if live.Len() == 0 || len(live.mem.activations()) == 0 {
		t.Fatalf("history leaves %d records and %d activations; want some of each", live.Len(), len(live.mem.activations()))
	}
	reopened, err := OpenDurable(dir, []byte("durable-secret"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer reopened.Close()
	checkSameState(t, "reopened", reopened, live)
}

// TestParentWrittenWALReopens: testdata/parent-wal is walHistory(6, 90)
// as the store logged it before it wrote lines by hand. It reopens to
// the state the history leaves today, and every line is byte for byte
// what appendWALEntry writes for the op it decodes to, but for the
// zero "before" member every non-purgeBefore line carried then.
func TestParentWrittenWALReopens(t *testing.T) {
	dir := t.TempDir()
	for _, name := range []string{durableKeyCheckName, durableWALName} {
		b, err := os.ReadFile(filepath.Join("testdata", "parent-wal", name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o600); err != nil {
			t.Fatal(err)
		}
	}
	parent, err := OpenDurable(dir, []byte("parent-secret"), false)
	if err != nil {
		t.Fatal(err)
	}
	defer parent.Close()
	live := openDurable(t, t.TempDir())
	applyHistory(t, live, walHistory(6, 90), 0)
	checkSameState(t, "parent-written store", parent, live)

	lines := walPlaintexts(t, parent, dir)
	if len(lines) != parent.WALOps() {
		t.Fatalf("%d lines, %d ops", len(lines), parent.WALOps())
	}
	for i, line := range lines {
		var e walEntry
		if err := json.Unmarshal(line, &e); err != nil {
			t.Fatal(err)
		}
		op, err := e.op()
		if err != nil {
			t.Fatal(err)
		}
		got, err := appendWALEntry(nil, op)
		if err != nil {
			t.Fatal(err)
		}
		want := line
		if e.Op != "purgeBefore" {
			want = bytes.Replace(line, []byte(`,"before":"0001-01-01T00:00:00Z"}`), []byte("}"), 1)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("line %d:\nparent   %s\nappender %s", i+1, line, got)
		}
	}
}

// TestDurableUnterminatedFinalRecordDropped: a crash that tears off no
// more than the final newline leaves a line that decodes, but its write
// was not acknowledged — the newline was part of it. Recovery drops the
// line and truncates it away, so the next append starts a line of its
// own.
func TestDurableUnterminatedFinalRecordDropped(t *testing.T) {
	dir := t.TempDir()
	ds := openDurable(t, dir)
	for _, user := range []string{"u0", "u1"} {
		if err := ds.Append(rec(user, "R", "op", "t", "P=1")); err != nil {
			t.Fatal(err)
		}
	}
	ds.Close()
	walPath := filepath.Join(dir, durableWALName)
	raw, err := os.ReadFile(walPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(walPath, raw[:len(raw)-1], 0o600); err != nil {
		t.Fatal(err)
	}
	ds2 := openDurable(t, dir)
	if ds2.Len() != 1 || ds2.WALOps() != 1 {
		t.Fatalf("recovered %d records over %d ops, want 1 and 1", ds2.Len(), ds2.WALOps())
	}
	if err := ds2.Append(rec("u9", "R", "op", "t", "P=1")); err != nil {
		t.Fatal(err)
	}
	ds2.Close()
	if ds3 := openDurable(t, dir); ds3.Len() != 2 {
		t.Fatalf("after the next append: %d records, want 2", ds3.Len())
	}
}

// TestDurableRefusesWhatTheLogCannotRestore: JSON writes an invalid
// UTF-8 byte as U+FFFD and RFC 3339 drops the seconds of a zone offset,
// so a store reopened from such a line would hold other records than
// the live one. The durable store refuses the op and logs nothing; the
// memory store, which logs nothing, takes it.
func TestDurableRefusesWhatTheLogCannotRestore(t *testing.T) {
	ds := openDurable(t, t.TempDir())
	bad := rec("al\xffice", "Teller", "op", "t", "P=1")
	badRole := rec("alice", "Tel\xffler", "op", "t", "P=1")
	badCtx := rec("alice", "Teller", "op", "t", "P=1\xff")
	lmt := time.FixedZone("LMT", -(7*3600 + 47))
	badTime := rec("alice", "Teller", "op", "t", "P=1")
	badTime.Time = badTime.Time.In(lmt)
	for _, op := range []Op{
		{Kind: OpRecord, Records: []Record{bad}},
		{Kind: OpRecord, Records: []Record{badRole}},
		{Kind: OpRecord, Records: []Record{badCtx}},
		{Kind: OpRecord, Records: []Record{rec("bob", "Teller", "op", "t", "P=1"), badTime}},
		{Kind: OpActivate, Bound: badCtx.Context},
		{Kind: OpActivate, Bound: badTime.Context, Time: badTime.Time},
		{Kind: OpClose, Bound: badCtx.Context},
		{Kind: OpPurgeUser, User: "al\xffice"},
		{Kind: OpPurgeBefore, Time: badTime.Time},
	} {
		if _, err := Apply(ds, op); err == nil {
			t.Errorf("op %+v applied", op)
		}
	}
	if ds.Len() != 0 || ds.WALOps() != 0 {
		t.Fatalf("%d records, %d ops logged; want none", ds.Len(), ds.WALOps())
	}
	if err := NewStore().Append(bad); err != nil {
		t.Fatalf("memory store: %v", err)
	}
}
