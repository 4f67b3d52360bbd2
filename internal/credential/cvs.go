package credential

import (
	"crypto/ed25519"
	"fmt"
	"sync"
	"time"

	"msod/internal/rbac"
)

// Linker resolves issuer-local holder identities to a stable local user
// ID, implementing the Liberty-style identity linking the paper sketches
// in §6 as the workaround for multi-authority VOs where "each authority
// may use different identifiers for identifying the same user". Without
// a link, the holder string itself is the local ID (the paper's default
// single-identity assumption).
type Linker struct {
	mu    sync.RWMutex
	alias map[aliasKey]rbac.UserID
}

// aliasKey is an (issuer, holder) pair. Both are free-form strings, so
// the pair is kept as two fields rather than joined into one key that
// two different pairs could spell the same way.
type aliasKey struct{ issuer, holder string }

// NewLinker returns an empty identity linker.
func NewLinker() *Linker {
	return &Linker{alias: make(map[aliasKey]rbac.UserID)}
}

// Link registers that the holder identity used by the issuer refers to
// the given local user.
func (l *Linker) Link(issuer, holder string, local rbac.UserID) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.alias[aliasKey{issuer, holder}] = local
}

// Resolve maps an (issuer, holder) pair to the local user ID, defaulting
// to the holder itself when no link exists.
func (l *Linker) Resolve(issuer, holder string) rbac.UserID {
	if l == nil {
		return rbac.UserID(holder)
	}
	l.mu.RLock()
	defer l.mu.RUnlock()
	if local, ok := l.alias[aliasKey{issuer, holder}]; ok {
		return local
	}
	return rbac.UserID(holder)
}

// CVS is the credential validation service: it verifies signatures
// against registered issuer keys, checks validity windows, filters
// attributes through the role-assignment trust policy, and resolves the
// holder to a stable local user ID.
type CVS struct {
	mu     sync.RWMutex
	keys   map[string]ed25519.PublicKey
	trust  map[string]map[rbac.RoleName]bool
	linker *Linker
}

// NewCVS builds a validation service. trust maps issuer name -> roles it
// may assign (from policy.RBACPolicy.TrustedRoles); a nil linker
// disables identity linking.
func NewCVS(trust map[string]map[rbac.RoleName]bool, linker *Linker) *CVS {
	t := make(map[string]map[rbac.RoleName]bool, len(trust))
	for issuer, roles := range trust {
		rs := make(map[rbac.RoleName]bool, len(roles))
		for r := range roles {
			rs[r] = true
		}
		t[issuer] = rs
	}
	return &CVS{
		keys:   make(map[string]ed25519.PublicKey),
		trust:  t,
		linker: linker,
	}
}

// RegisterIssuer records an issuer's verification key. Re-registration
// replaces the key (key rollover).
func (v *CVS) RegisterIssuer(name string, key ed25519.PublicKey) error {
	if name == "" || len(key) != ed25519.PublicKeySize {
		return fmt.Errorf("credential: invalid issuer registration for %q", name)
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	v.keys[name] = append(ed25519.PublicKey(nil), key...)
	return nil
}

// RegisterAuthority is a convenience for RegisterIssuer(a.Name(),
// a.PublicKey()).
func (v *CVS) RegisterAuthority(a *Authority) error {
	return v.RegisterIssuer(a.Name(), a.PublicKey())
}

// Validated is the CVS output for one user: the stable local user ID
// and the validated role set the PDP may rely on.
type Validated struct {
	User  rbac.UserID
	Roles []rbac.RoleName
	// Rejected records credentials (by index into the input) that failed
	// validation, with the cause; the PDP proceeds with the valid subset,
	// as PERMIS does. It is nil when none failed.
	Rejected map[int]error
}

// reject records that credential i failed validation with err.
func (out *Validated) reject(i int, err error) {
	if out.Rejected == nil {
		out.Rejected = make(map[int]error)
	}
	out.Rejected[i] = err
}

// Validate checks each credential at the given time and aggregates the
// valid roles. All credentials must resolve to the same local user; a
// mismatch is ErrDistinctUsers (the PDP cannot mix histories of two
// users). The signature of every credential is verified on every call.
func (v *CVS) Validate(creds []Credential, at time.Time) (Validated, error) {
	var out Validated
	v.mu.RLock()
	defer v.mu.RUnlock()

	seen := make(map[rbac.RoleName]bool)
	for i := range creds {
		c := &creds[i]
		if err := v.validateOne(c, at); err != nil {
			out.reject(i, err)
			continue
		}
		local := v.linker.Resolve(c.Issuer, c.Holder)
		if out.User == "" {
			out.User = local
		} else if out.User != local {
			return Validated{}, fmt.Errorf("%w %q and %q", ErrDistinctUsers, out.User, local)
		}
		for _, a := range c.Attributes {
			role := rbac.RoleName(a.Value)
			if !v.trust[c.Issuer][role] {
				out.reject(i, fmt.Errorf("%w: %q may not assign %q", ErrUntrustedAssignment, c.Issuer, role))
				continue
			}
			if !seen[role] {
				seen[role] = true
				out.Roles = append(out.Roles, role)
			}
		}
	}
	return out, nil
}

// validateOne checks signature and validity window. The payload is
// built in a buffer on the stack that fits a credential of a few roles.
func (v *CVS) validateOne(c *Credential, at time.Time) error {
	key, ok := v.keys[c.Issuer]
	if !ok {
		return fmt.Errorf("%w: %q", ErrUnknownIssuer, c.Issuer)
	}
	var buf [512]byte
	payload, err := c.payload(buf[:0])
	if err != nil {
		return err
	}
	if !ed25519.Verify(key, payload, c.Signature) {
		return fmt.Errorf("%w: issuer %q holder %q", ErrBadSignature, c.Issuer, c.Holder)
	}
	if at.Before(c.NotBefore) || at.After(c.NotAfter) {
		return fmt.Errorf("%w: valid %s..%s, checked at %s", ErrExpired,
			c.NotBefore.Format(time.RFC3339), c.NotAfter.Format(time.RFC3339), at.Format(time.RFC3339))
	}
	return nil
}
