package adi

import (
	"crypto/aes"
	"crypto/cipher"
	"crypto/rand"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"msod/internal/fsx"
)

// SecureStore persists retained-ADI snapshots to an AES-256-GCM
// encrypted, integrity-protected file. It plays the role of the "secure
// relational database" the paper proposes as its next implementation
// (§6): instead of replaying audit trails at start-up, the PDP loads one
// sealed snapshot. TestRecoveryPathsAgree (audit) checks that both
// recovery paths restore the same records (experiment E5).
type SecureStore struct {
	path string
	aead cipher.AEAD
	fs   fsx.FS
}

// wireRecord is the serialised form of a Record; the business context is
// carried as its canonical string.
type wireRecord struct {
	User      string    `json:"user"`
	Roles     []string  `json:"roles,omitempty"`
	Operation string    `json:"op"`
	Target    string    `json:"target"`
	Context   string    `json:"ctx"`
	Time      time.Time `json:"time"`
}

// snapshot is the serialised file payload.
type snapshot struct {
	Version int          `json:"version"`
	Saved   time.Time    `json:"saved"`
	Records []wireRecord `json:"records"`
}

const snapshotVersion = 1

// NewSecureStore creates a store writing to path, deriving an AES-256
// key from the given secret via SHA-256. The secret plays the role of
// the PDP's storage credential; key management proper is outside the
// paper's scope.
func NewSecureStore(path string, secret []byte) (*SecureStore, error) {
	return NewSecureStoreFS(path, secret, fsx.OS)
}

// NewSecureStoreFS is NewSecureStore over an injected filesystem, so
// fault-injection tests can fail or tear the snapshot's writes.
func NewSecureStoreFS(path string, secret []byte, fs fsx.FS) (*SecureStore, error) {
	if len(secret) == 0 {
		return nil, fmt.Errorf("adi: empty secure store secret")
	}
	key := sha256.Sum256(secret)
	block, err := aes.NewCipher(key[:])
	if err != nil {
		return nil, fmt.Errorf("adi: cipher: %w", err)
	}
	aead, err := cipher.NewGCM(block)
	if err != nil {
		return nil, fmt.Errorf("adi: gcm: %w", err)
	}
	return &SecureStore{path: path, aead: aead, fs: fs}, nil
}

// Save seals the given records into the snapshot file, replacing any
// previous snapshot atomically: write to a temp file, fsync it, rename
// over the target, then fsync the parent directory. Without the two
// fsyncs a power failure can leave the "atomic" snapshot torn (temp
// content not on disk at rename) or lost (directory entry not on
// disk).
func (ss *SecureStore) Save(recs []Record) error {
	//msod:ignore clockuse snapshot-file Saved stamp is operator metadata; record timestamps inside are preserved verbatim
	snap := snapshot{Version: snapshotVersion, Saved: time.Now().UTC(), Records: make([]wireRecord, len(recs))}
	for i, r := range recs {
		snap.Records[i] = toWire(r)
	}
	plain, err := json.Marshal(snap)
	if err != nil {
		return fmt.Errorf("adi: marshal snapshot: %w", err)
	}
	nonce := make([]byte, ss.aead.NonceSize())
	if _, err := rand.Read(nonce); err != nil {
		return fmt.Errorf("adi: nonce: %w", err)
	}
	sealed := ss.aead.Seal(nonce, nonce, plain, nil)
	tmp := ss.path + ".tmp"
	f, err := ss.fs.OpenFile(tmp, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o600)
	if err != nil {
		return fmt.Errorf("adi: create snapshot temp: %w", err)
	}
	if _, err := f.Write(sealed); err != nil {
		f.Close()
		return fmt.Errorf("adi: write snapshot: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("adi: sync snapshot: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("adi: close snapshot temp: %w", err)
	}
	if err := ss.fs.Rename(tmp, ss.path); err != nil {
		return fmt.Errorf("adi: install snapshot: %w", err)
	}
	if err := syncDir(ss.fs, filepath.Dir(ss.path)); err != nil {
		return fmt.Errorf("adi: sync snapshot dir: %w", err)
	}
	return nil
}

// syncDir fsyncs a directory so a just-completed rename inside it is
// durable.
func syncDir(fs fsx.FS, dir string) error {
	d, err := fs.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		d.Close()
		return err
	}
	return d.Close()
}

// Load opens and verifies the snapshot file and returns its records. A
// missing file yields an empty slice and no error; a tampered or
// wrongly-keyed file yields an error.
func (ss *SecureStore) Load() ([]Record, error) {
	sealed, err := ss.fs.ReadFile(ss.path)
	if os.IsNotExist(err) {
		return nil, nil
	}
	if err != nil {
		return nil, fmt.Errorf("adi: read snapshot: %w", err)
	}
	if len(sealed) < ss.aead.NonceSize() {
		return nil, fmt.Errorf("adi: snapshot truncated")
	}
	nonce, body := sealed[:ss.aead.NonceSize()], sealed[ss.aead.NonceSize():]
	plain, err := ss.aead.Open(nil, nonce, body, nil)
	if err != nil {
		return nil, fmt.Errorf("adi: snapshot authentication failed: %w", err)
	}
	var snap snapshot
	if err := json.Unmarshal(plain, &snap); err != nil {
		return nil, fmt.Errorf("adi: unmarshal snapshot: %w", err)
	}
	if snap.Version != snapshotVersion {
		return nil, fmt.Errorf("adi: unsupported snapshot version %d", snap.Version)
	}
	recs := make([]Record, len(snap.Records))
	for i, w := range snap.Records {
		r, err := fromWire(w)
		if err != nil {
			return nil, fmt.Errorf("adi: snapshot record %d: %w", i, err)
		}
		recs[i] = r
	}
	return recs, nil
}

// LoadInto restores the snapshot's records into the given store,
// returning how many were loaded.
func (ss *SecureStore) LoadInto(dst Recorder) (int, error) {
	recs, err := ss.Load()
	if err != nil {
		return 0, err
	}
	if len(recs) == 0 {
		return 0, nil
	}
	if err := dst.Append(recs...); err != nil {
		return 0, err
	}
	return len(recs), nil
}
