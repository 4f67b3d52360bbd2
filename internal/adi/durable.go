package adi

import (
	"bufio"
	"bytes"
	"context"
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"msod/internal/bctx"
	"msod/internal/fsx"
	"msod/internal/rbac"
)

// ErrWriteFailed marks a durable-store mutation that failed at the
// disk layer (EIO, ENOSPC, failed fsync). The acknowledged state is
// unchanged — the mutation was refused, not half-applied — but the
// store can no longer promise durability for new writes, so callers
// (the PDP server) treat it as the trigger for degraded read-only
// mode. Test with errors.Is.
var ErrWriteFailed = errors.New("adi: durable write failed")

// DurableStore is the paper's §6 successor design for the retained ADI:
// instead of rebuilding history from audit trails at every start-up, the
// store itself is durable. It keeps the indexed in-memory Store for
// queries and makes every mutation durable through an encrypted
// write-ahead log; Compact folds the log into a sealed snapshot. Opening
// the store recovers state from snapshot + log, tolerating a torn final
// log record from a crash mid-write.
//
// Layout inside the directory:
//
//	snapshot.sealed  AES-GCM sealed snapshot (SecureStore format)
//	wal.log          one sealed mutation per line, applied after the snapshot
//
// DurableStore implements Recorder and is safe for concurrent use.
type DurableStore struct {
	mu   sync.Mutex
	mem  *Store
	dir  string
	aead cipher.AEAD
	snap *SecureStore
	fs   fsx.FS

	wal fsx.File
	w   *bufio.Writer
	// sync makes every mutation fsync before it is acknowledged: before
	// it returns, or, under a SyncWaiter, before the waiter's Wait does.
	sync bool
	// syncFiles holds the log's file descriptions that Syncs run on,
	// walSyncFiles of them on a store that syncs; a Sync takes one and
	// gives it back (see syncFile).
	syncFiles chan fsx.File
	// written numbers the entries written to the log, and walBytes is
	// the log's length; both are raised under mu, walBytes first. synced
	// is the highest entry a completed Sync covers, and syncedBytes the
	// length of log it covers. syncErr is the first Sync that failed:
	// from then on no Sync is trusted, and the log is cut back to
	// syncedBytes (dropUnsyncedLocked; dropped records it). syncMu orders
	// the raising of synced and syncedBytes against the recording of
	// syncErr, so no Sync raises them after a failure. syncs counts the
	// waits for a Sync outside mu, which Close and Compact wait out.
	written     atomic.Uint64
	walBytes    atomic.Int64
	synced      atomic.Uint64
	syncErr     atomic.Pointer[error]
	syncMu      sync.Mutex
	syncedBytes int64
	dropped     bool
	syncs       sync.WaitGroup
	// walOps counts mutations since the last compaction.
	walOps int
	// recoveryDur is how long snapshot+WAL recovery took at open —
	// the restart cost an operator watches (exposed as the
	// msod_adi_recovery_seconds gauge by msodd).
	recoveryDur time.Duration

	// plain, sealed and line are a logged mutation's scratch, reused
	// under mu: its JSON (appendWALEntry), nonce‖ciphertext, and the
	// base64 line. Logging allocates nothing of its own.
	plain, sealed, line []byte
}

const (
	durableSnapshotName = "snapshot.sealed"
	durableWALName      = "wal.log"

	// walSyncFiles is how many Syncs of the log may run at once. A Sync
	// that finds every file description busy waits for one, and is then
	// usually covered by the Sync that freed it.
	walSyncFiles = 4
)

// OpenDurable opens (creating if necessary) a durable retained-ADI store
// in dir, sealed with a key derived from secret. syncEveryWrite selects
// whether each mutation is fsynced (durable against power loss) or only
// flushed to the OS (durable against process crash).
func OpenDurable(dir string, secret []byte, syncEveryWrite bool) (*DurableStore, error) {
	return OpenDurableFS(dir, secret, syncEveryWrite, fsx.OS)
}

// OpenDurableFS is OpenDurable over an injected filesystem. The fault
// torture tests use it to crash the store at every write, fsync and
// rename and then reopen over the surviving bytes.
func OpenDurableFS(dir string, secret []byte, syncEveryWrite bool, fs fsx.FS) (*DurableStore, error) {
	if len(secret) == 0 {
		return nil, fmt.Errorf("adi: empty durable store secret")
	}
	if err := fs.MkdirAll(dir, 0o700); err != nil {
		return nil, fmt.Errorf("adi: create durable dir: %w", err)
	}
	key := sha256.Sum256(append([]byte("msod-durable-wal:"), secret...))
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("adi: cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("adi: gcm: %w", err)
	}
	snap, err := NewSecureStoreFS(filepath.Join(dir, durableSnapshotName), secret, fs)
	if err != nil {
		return nil, err
	}
	ds := &DurableStore{
		mem:  NewStore(),
		dir:  dir,
		aead: aead,
		snap: snap,
		fs:   fs,
		sync: syncEveryWrite,
	}
	if err := ds.checkKey(); err != nil {
		return nil, err
	}
	recoverStart := time.Now() //msod:ignore clockuse startup-recovery telemetry only; never retained in ADI records or trail ordering
	if err := ds.recover(); err != nil {
		return nil, err
	}
	ds.recoveryDur = time.Since(recoverStart)
	walPath := filepath.Join(dir, durableWALName)
	wal, err := fs.OpenFile(walPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o600)
	if err != nil {
		return nil, fmt.Errorf("adi: open wal: %w", err)
	}
	// What recovery read is what the log holds: a later failed Sync cuts
	// it back no further.
	fi, err := fs.Stat(walPath)
	if err != nil {
		return nil, errors.Join(fmt.Errorf("adi: stat wal: %w", err), wal.Close())
	}
	ds.walBytes.Store(fi.Size())
	ds.syncedBytes = fi.Size()
	if syncEveryWrite {
		ds.syncFiles = make(chan fsx.File, walSyncFiles)
		for range walSyncFiles {
			f, err := fs.OpenFile(walPath, os.O_WRONLY, 0)
			if err != nil {
				return nil, errors.Join(fmt.Errorf("adi: open wal for sync: %w", err), wal.Close(), ds.closeSyncFiles())
			}
			ds.syncFiles <- f
		}
	}
	ds.wal = wal
	ds.w = bufio.NewWriter(wal)
	return ds, nil
}

// durableKeyCheckName marks the store with a sealed probe so a wrong
// secret is reported as such instead of being mistaken for a torn WAL.
const durableKeyCheckName = "keycheck.sealed"

// checkKey verifies (or, for a fresh store, installs) the key-check
// marker. The install is a durable write — a torn marker after power
// loss would make every later open fail as a secret mismatch.
func (ds *DurableStore) checkKey() error {
	path := filepath.Join(ds.dir, durableKeyCheckName)
	sealed, err := ds.fs.ReadFile(path)
	if os.IsNotExist(err) {
		line, serr := ds.seal([]byte(keycheckEntry))
		if serr != nil {
			return serr
		}
		f, werr := ds.fs.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o600)
		if werr != nil {
			return fmt.Errorf("adi: create keycheck: %w", werr)
		}
		if _, werr := f.Write(line); werr != nil {
			f.Close()
			return fmt.Errorf("adi: write keycheck: %w", werr)
		}
		if werr := f.Sync(); werr != nil {
			f.Close()
			return fmt.Errorf("adi: sync keycheck: %w", werr)
		}
		return f.Close()
	}
	if err != nil {
		return fmt.Errorf("adi: read keycheck: %w", err)
	}
	entry, err := ds.openEntry(sealed)
	if err != nil || entry.Op != "keycheck" {
		return fmt.Errorf("adi: durable store secret mismatch or keycheck corrupt")
	}
	return nil
}

// recover loads the snapshot, then replays the WAL. A torn final record
// (crash mid-write) is truncated away; a corrupted record elsewhere is a
// hard error (tampering).
func (ds *DurableStore) recover() error {
	if _, err := ds.snap.LoadInto(ds.mem); err != nil {
		return fmt.Errorf("adi: durable recovery: %w", err)
	}
	walPath := filepath.Join(ds.dir, durableWALName)
	f, err := ds.fs.Open(walPath)
	if os.IsNotExist(err) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("adi: open wal for recovery: %w", err)
	}
	defer f.Close()

	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 8<<20)
	// A final line without its newline is torn even when every byte of
	// the entry survived: the write that logged it carried the newline,
	// so an acknowledged entry has one on disk.
	var unterminated bool
	sc.Split(func(data []byte, atEOF bool) (int, []byte, error) {
		adv, tok, err := bufio.ScanLines(data, atEOF)
		unterminated = atEOF && tok != nil && bytes.IndexByte(data[:adv], '\n') < 0
		return adv, tok, err
	})
	var (
		goodBytes int64
		lineNo    int
	)
	for sc.Scan() {
		line := sc.Bytes()
		lineNo++
		if len(line) == 0 {
			goodBytes += 1
			continue
		}
		entry, err := ds.openEntry(line)
		if err == nil && unterminated {
			err = errors.New("adi: wal record lacks its newline")
		}
		if err != nil {
			// Only the final record may be torn; check whether anything
			// non-blank follows.
			rest, readErr := trailingContent(sc)
			if readErr != nil {
				return readErr
			}
			if rest {
				return fmt.Errorf("adi: wal line %d corrupt mid-log: %w", lineNo, err)
			}
			// Torn tail: truncate it away and finish recovery.
			if terr := ds.fs.Truncate(walPath, goodBytes); terr != nil {
				return fmt.Errorf("adi: truncate torn wal: %w", terr)
			}
			ds.walOps = lineNo - 1
			return nil
		}
		op, err := entry.op()
		if err == nil {
			_, err = Apply(ds.mem, op)
		}
		if err != nil {
			return fmt.Errorf("adi: wal line %d: %w", lineNo, err)
		}
		goodBytes += int64(len(line)) + 1
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("adi: read wal: %w", err)
	}
	ds.walOps = lineNo
	return nil
}

// trailingContent reports whether any non-blank line remains in the
// scanner (used to distinguish a torn tail from mid-log corruption).
func trailingContent(sc *bufio.Scanner) (bool, error) {
	for sc.Scan() {
		if len(strings.TrimSpace(sc.Text())) > 0 {
			return true, nil
		}
	}
	return false, sc.Err()
}

// seal encrypts one WAL entry's JSON to a base64 line, with room
// behind it for the newline logLocked appends. The line is the store's
// scratch: valid until the next seal, so callers hold mu (or, at open,
// own the store) until it is written.
func (ds *DurableStore) seal(plain []byte) ([]byte, error) {
	ns := ds.aead.NonceSize()
	nonce := slices.Grow(ds.sealed[:0], ns)[:ns]
	if _, err := rand.Read(nonce); err != nil {
		return nil, fmt.Errorf("adi: wal nonce: %w", err)
	}
	ds.sealed = ds.aead.Seal(nonce, nonce, plain, nil)
	ds.line = slices.Grow(ds.line[:0], base64.StdEncoding.EncodedLen(len(ds.sealed))+1)
	ds.line = base64.StdEncoding.AppendEncode(ds.line, ds.sealed)
	return ds.line, nil
}

// openEntry decrypts one WAL line.
func (ds *DurableStore) openEntry(line []byte) (walEntry, error) {
	sealed := make([]byte, base64.StdEncoding.DecodedLen(len(line)))
	n, err := base64.StdEncoding.Decode(sealed, line)
	if err != nil {
		return walEntry{}, fmt.Errorf("adi: wal base64: %w", err)
	}
	sealed = sealed[:n]
	if len(sealed) < ds.aead.NonceSize() {
		return walEntry{}, fmt.Errorf("adi: wal record truncated")
	}
	plain, err := ds.aead.Open(nil, sealed[:ds.aead.NonceSize()], sealed[ds.aead.NonceSize():], nil)
	if err != nil {
		return walEntry{}, fmt.Errorf("adi: wal authentication failed: %w", err)
	}
	var e walEntry
	if err := json.Unmarshal(plain, &e); err != nil {
		return walEntry{}, fmt.Errorf("adi: wal decode: %w", err)
	}
	return e, nil
}

// logLocked writes op's entry to the log, then applies op in memory
// with Apply — what recovery does with the entry it decodes.
// Durability first: the mutation reaches the log before the store state
// changes, so a crash never loses an acknowledged write. On a store
// that syncs, the entry is synced before it is applied — unless w takes
// the sync: then w notes the entry, and the mutation is acknowledged
// only when w.Wait returns. Once a Sync has failed, every mutation is
// refused before it is written, and the log is cut back to what the
// last good Sync covered.
func (ds *DurableStore) logLocked(op Op, w *SyncWaiter) (Effect, error) {
	if err := loggable(op); err != nil {
		return Effect{}, err
	}
	if err := ds.syncFailed(); err != nil {
		return Effect{}, errors.Join(err, ds.dropUnsyncedLocked())
	}
	plain, err := appendWALEntry(ds.plain[:0], op)
	if err != nil {
		return Effect{}, fmt.Errorf("adi: marshal wal entry: %w", err)
	}
	ds.plain = plain
	line, err := ds.seal(plain)
	if err != nil {
		return Effect{}, err
	}
	if _, err := ds.w.Write(append(line, '\n')); err != nil {
		return Effect{}, fmt.Errorf("%w: write wal: %w", ErrWriteFailed, err)
	}
	if err := ds.w.Flush(); err != nil {
		return Effect{}, fmt.Errorf("%w: flush wal: %w", ErrWriteFailed, err)
	}
	ds.walBytes.Add(int64(len(line)) + 1)
	seq := ds.written.Add(1)
	if ds.sync {
		if w != nil {
			w.store, w.seq = ds, seq
		} else if err := ds.syncOn(seq); err != nil {
			return Effect{}, errors.Join(err, ds.dropUnsyncedLocked())
		}
	}
	eff, err := Apply(ds.mem, op)
	if err != nil {
		return eff, err
	}
	ds.walOps++
	return eff, nil
}

// AppendCtx is Append carrying a context. When the context holds a
// Tracer, the WAL round trip (seal, write, flush, fsync unless a waiter
// takes it, in-memory apply) is recorded as a SpanWAL span — nested
// inside the engine's store span, so an operator reading a retained
// trace can tell WAL latency apart from in-memory commit work. When it
// holds a *SyncWaiter (SyncKey), the sync is left to the waiter: the
// caller acknowledges the records only once its Wait returns.
func (ds *DurableStore) AppendCtx(ctx context.Context, recs ...Record) error {
	if tr, ok := ctx.Value(TracerKey).(Tracer); ok {
		defer tr.CloseSpan(tr.OpenSpan(SpanWAL))
	}
	w, _ := ctx.Value(SyncKey).(*SyncWaiter)
	return ds.append(w, recs)
}

// Append implements Recorder.
func (ds *DurableStore) Append(recs ...Record) error { return ds.append(nil, recs) }

// append logs one record op, its sync taken by w when w is not nil.
func (ds *DurableStore) append(w *SyncWaiter, recs []Record) error {
	for _, r := range recs {
		if err := r.Validate(); err != nil {
			return err
		}
	}
	if len(recs) == 0 {
		return nil
	}
	ds.mu.Lock()
	defer ds.mu.Unlock()
	_, err := ds.logLocked(Op{Kind: OpRecord, Records: recs}, w)
	return err
}

// PurgeContext implements Recorder.
func (ds *DurableStore) PurgeContext(pattern bctx.Name) (int, error) {
	return ds.purge(Op{Kind: OpClose, Bound: pattern})
}

// PurgeUser durably removes one user's records.
func (ds *DurableStore) PurgeUser(user rbac.UserID) (int, error) {
	return ds.purge(Op{Kind: OpPurgeUser, User: user})
}

// PurgeBefore durably removes records older than t.
func (ds *DurableStore) PurgeBefore(t time.Time) (int, error) {
	return ds.purge(Op{Kind: OpPurgeBefore, Time: t})
}

// purge logs one purge and returns the records it removed.
func (ds *DurableStore) purge(op Op) (int, error) {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	eff, err := ds.logLocked(op, nil)
	return eff.Removed, err
}

// SyncWaiter takes a decision's WAL sync out of its locks. An
// AppendCtx whose context answers SyncKey with one writes, flushes and
// applies its entry under the store's lock (and the engine's) as
// Append does, but notes the entry's log position here instead of
// syncing it; the decision calls Wait once it holds no lock. The zero
// value is ready, and serves one decision on one store.
type SyncWaiter struct {
	store *DurableStore
	seq   uint64 // the last entry the decision wrote
}

// Pending reports whether the decision wrote an entry that it has not
// waited on.
func (w *SyncWaiter) Pending() bool { return w != nil && w.store != nil }

// Wait returns once a sync covers every entry the decision wrote. An
// error wraps ErrWriteFailed: the entries stay applied in memory, but
// none of them may be acknowledged.
func (w *SyncWaiter) Wait() error {
	if !w.Pending() {
		return nil
	}
	err := w.store.syncThrough(w.seq)
	if err == nil {
		w.store = nil
	}
	return err
}

// syncThrough returns once a Sync covers log entry seq: at once when an
// earlier one did, else after one of its own. It takes mu to see that
// the log is open, and after a failed Sync to cut the log back, and
// runs its Sync outside every lock, so a decision waiting on its sync
// holds up no other, and Syncs overlap.
func (ds *DurableStore) syncThrough(seq uint64) error {
	if ds.synced.Load() >= seq {
		return nil
	}
	ds.mu.Lock()
	open := ds.wal != nil
	if open {
		ds.syncs.Add(1)
	}
	ds.mu.Unlock()
	if !open {
		if ds.synced.Load() >= seq { // Close synced it
			return nil
		}
		return fmt.Errorf("%w: sync wal: store closed", ErrWriteFailed)
	}
	err := ds.syncOn(seq)
	// Done before mu: Close and Compact hold mu while they wait syncs
	// out.
	ds.syncs.Done()
	if err != nil {
		ds.mu.Lock()
		err = errors.Join(err, ds.dropUnsyncedLocked())
		ds.mu.Unlock()
	}
	return err
}

// syncOn makes a Sync on one of syncFiles cover entry seq, unless one
// did while it waited for a file. It is the one place the log is
// synced: under mu when the mutation waits for it (logLocked, Close),
// outside it from syncThrough.
func (ds *DurableStore) syncOn(seq uint64) error {
	f := <-ds.syncFiles
	defer func() { ds.syncFiles <- f }()
	return ds.syncFile(f, seq)
}

// syncFile Syncs f, which no other Sync is using, and marks every entry
// written before the Sync began as synced. The kernel reports a
// writeback error once to each file description: to the first fsync on
// it after the error, and not to one running beside that fsync on the
// same description, nor to a later one, which returns success over the
// pages that were lost. So no two Syncs share a file description, and
// the first failure sticks until the store is reopened — it is stored
// before f is given back, and no Sync after it may cover an entry,
// whoever wrote it: not even one that began before it and succeeded
// after, for the log is cut back to what the Syncs before the failure
// covered.
func (ds *DurableStore) syncFile(f fsx.File, seq uint64) error {
	if ds.synced.Load() >= seq {
		return nil
	}
	if err := ds.syncFailed(); err != nil {
		return err
	}
	// written before walBytes: walBytes is raised first, so the length
	// read covers entry upto, and it was flushed before the Sync began.
	upto := ds.written.Load()
	size := ds.walBytes.Load()
	if err := f.Sync(); err != nil {
		return ds.syncFailure(err)
	}
	ds.syncMu.Lock()
	defer ds.syncMu.Unlock()
	if err := ds.syncFailed(); err != nil {
		return err
	}
	ds.markSynced(upto)
	ds.syncedBytes = max(ds.syncedBytes, size)
	return nil
}

// syncFailure keeps the first failed Sync's error, and returns err's.
func (ds *DurableStore) syncFailure(err error) error {
	err = fmt.Errorf("%w: sync wal: %w", ErrWriteFailed, err)
	ds.syncMu.Lock()
	ds.syncErr.CompareAndSwap(nil, &err)
	ds.syncMu.Unlock()
	return err
}

// dropUnsyncedLocked cuts the log back, once, to the length the Syncs
// before the first failure covered, after that failure. What it drops
// was never acknowledged: an op refused on its failed Sync — a purge,
// whose replay would take away history the store still holds — and the
// entries of decisions still waiting on a Sync, which will be refused.
// Without the cut, a process that died before Close would replay them
// all at the next open.
func (ds *DurableStore) dropUnsyncedLocked() error {
	if ds.dropped || ds.wal == nil {
		return nil
	}
	ds.syncMu.Lock()
	size := ds.syncedBytes
	ds.syncMu.Unlock()
	if err := ds.wal.Truncate(size); err != nil {
		return fmt.Errorf("%w: cut wal back to its synced length: %w", ErrWriteFailed, err)
	}
	ds.dropped = true
	return nil
}

// syncFailed returns the first failed Sync's error, or nil.
func (ds *DurableStore) syncFailed() error {
	if err := ds.syncErr.Load(); err != nil {
		return *err
	}
	return nil
}

// markSynced raises synced to upto; it never lowers it.
func (ds *DurableStore) markSynced(upto uint64) {
	for cur := ds.synced.Load(); cur < upto; cur = ds.synced.Load() {
		if ds.synced.CompareAndSwap(cur, upto) {
			return
		}
	}
}

// Read-side methods delegate to the in-memory index.

// UserHasRole implements Recorder.
func (ds *DurableStore) UserHasRole(user rbac.UserID, pattern bctx.Name, role rbac.RoleName) (bool, error) {
	return ds.mem.UserHasRole(user, pattern, role)
}

// UserHasPrivilege implements Recorder.
func (ds *DurableStore) UserHasPrivilege(user rbac.UserID, pattern bctx.Name, p rbac.Permission) (bool, error) {
	return ds.mem.UserHasPrivilege(user, pattern, p)
}

// CountUserRole implements Recorder.
func (ds *DurableStore) CountUserRole(user rbac.UserID, pattern bctx.Name, role rbac.RoleName, max int) (int, error) {
	return ds.mem.CountUserRole(user, pattern, role, max)
}

// CountUserPrivilege implements Recorder.
func (ds *DurableStore) CountUserPrivilege(user rbac.UserID, pattern bctx.Name, p rbac.Permission, max int) (int, error) {
	return ds.mem.CountUserPrivilege(user, pattern, p, max)
}

// ContextActive implements Recorder.
func (ds *DurableStore) ContextActive(pattern bctx.Name) (bool, error) {
	return ds.mem.ContextActive(pattern)
}

// Len implements Recorder.
func (ds *DurableStore) Len() int { return ds.mem.Len() }

// All returns a copy of every record (see Store.All).
func (ds *DurableStore) All() []Record { return ds.mem.All() }

// WALOps returns the number of mutations logged since the last
// compaction, for compaction scheduling.
func (ds *DurableStore) WALOps() int {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	return ds.walOps
}

// RecoveryDuration reports how long snapshot+WAL recovery took when
// the store was opened.
func (ds *DurableStore) RecoveryDuration() time.Duration { return ds.recoveryDur }

// DiskUsage reports the store's on-disk footprint in bytes (snapshot
// plus write-ahead log) — the growth an operator watches between
// compactions.
func (ds *DurableStore) DiskUsage() int64 {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	// Flush buffered WAL bytes so the reported size matches what a
	// crash would recover.
	if ds.w != nil {
		_ = ds.w.Flush()
	}
	var total int64
	for _, name := range []string{durableSnapshotName, durableWALName} {
		if fi, err := ds.fs.Stat(filepath.Join(ds.dir, name)); err == nil {
			total += fi.Size()
		}
	}
	return total
}

// Compact folds the log into the snapshot: the current state — the
// records, and the activations encoded as Append takes them — is sealed
// to snapshot.sealed (atomically) and the WAL is truncated. Recovery
// after Compact reads only the snapshot.
func (ds *DurableStore) Compact() error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if err := ds.w.Flush(); err != nil {
		return fmt.Errorf("%w: flush before compact: %w", ErrWriteFailed, err)
	}
	if err := ds.snap.Save(append(ds.mem.All(), ds.mem.activations()...)); err != nil {
		return fmt.Errorf("%w: %w", ErrWriteFailed, err)
	}
	// The snapshot holds every entry written so far, and Save synced it.
	// No Sync may still be running to raise syncedBytes past the log
	// this empties.
	ds.syncs.Wait()
	ds.markSynced(ds.written.Load())
	// Snapshot durably installed; the log can be reset.
	if err := ds.wal.Truncate(0); err != nil {
		return fmt.Errorf("%w: truncate wal: %w", ErrWriteFailed, err)
	}
	ds.walBytes.Store(0)
	ds.syncMu.Lock()
	ds.syncedBytes = 0
	ds.syncMu.Unlock()
	if _, err := ds.wal.Seek(0, 0); err != nil {
		return fmt.Errorf("adi: rewind wal: %w", err)
	}
	ds.w.Reset(ds.wal)
	ds.walOps = 0
	return nil
}

// Close flushes and closes the store. It first waits out the Syncs
// running outside the lock, and on a store that syncs, it syncs what a
// decision wrote but has not waited on yet, so that wait returns at
// once. A Compact before Close makes the next open snapshot-only.
func (ds *DurableStore) Close() error {
	ds.mu.Lock()
	defer ds.mu.Unlock()
	if ds.wal == nil {
		return nil
	}
	ds.syncs.Wait()
	if err := ds.w.Flush(); err != nil {
		return fmt.Errorf("adi: flush wal: %w", err)
	}
	var serr error
	if ds.sync {
		if serr = ds.syncOn(ds.written.Load()); serr != nil {
			serr = errors.Join(serr, ds.dropUnsyncedLocked())
		}
	}
	err := ds.wal.Close()
	ds.wal = nil
	if err != nil {
		err = fmt.Errorf("adi: close wal: %w", err)
	}
	return errors.Join(serr, err, ds.closeSyncFiles())
}

// closeSyncFiles closes the file descriptions in syncFiles. No Sync may
// be running.
func (ds *DurableStore) closeSyncFiles() error {
	var errs []error
	for len(ds.syncFiles) > 0 {
		if err := (<-ds.syncFiles).Close(); err != nil {
			errs = append(errs, fmt.Errorf("adi: close wal: %w", err))
		}
	}
	return errors.Join(errs...)
}

var _ Recorder = (*DurableStore)(nil)

// toWire converts a record to its serialised form.
func toWire(r Record) wireRecord {
	roles := make([]string, len(r.Roles))
	for j, rr := range r.Roles {
		roles[j] = string(rr)
	}
	return wireRecord{
		User:      string(r.User),
		Roles:     roles,
		Operation: string(r.Operation),
		Target:    string(r.Target),
		Context:   r.Context.String(),
		Time:      r.Time,
	}
}

// fromWire converts a serialised record back.
func fromWire(w wireRecord) (Record, error) {
	ctx, err := bctx.Parse(w.Context)
	if err != nil {
		return Record{}, fmt.Errorf("adi: wire record context: %w", err)
	}
	roles := make([]rbac.RoleName, len(w.Roles))
	for j, rr := range w.Roles {
		roles[j] = rbac.RoleName(rr)
	}
	return Record{
		User:      rbac.UserID(w.User),
		Roles:     roles,
		Operation: rbac.Operation(w.Operation),
		Target:    rbac.Object(w.Target),
		Context:   ctx,
		Time:      w.Time,
	}, nil
}
