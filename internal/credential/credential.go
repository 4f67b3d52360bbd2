// Package credential implements the privilege allocation and credential
// validation parts of the PERMIS infrastructure (§5.1, Figure 4): sources
// of authority (SOAs) issue digitally signed attribute credentials
// binding roles to user identities, and a Credential Validation Service
// (CVS) verifies them against a trust policy before the PDP sees any
// role.
//
// The paper transports roles as X.509 attribute certificates or SAML
// assertions; this package substitutes Ed25519-signed JSON credentials
// with the same semantic content (holder, issuer, attributes, validity,
// signature). The MSoD algorithm only consumes the validated (user ID,
// roles) binding, so the encoding is immaterial to the reproduction.
package credential

import (
	"crypto/ed25519"
	"crypto/rand"
	"errors"
	"fmt"
	"time"

	"msod/internal/jsonx"
	"msod/internal/rbac"
)

// Validation errors.
var (
	// ErrBadSignature is returned when a credential's signature does not
	// verify under the issuer's public key.
	ErrBadSignature = errors.New("credential: bad signature")
	// ErrUnknownIssuer is returned when no public key is registered for
	// the credential's issuer.
	ErrUnknownIssuer = errors.New("credential: unknown issuer")
	// ErrExpired is returned when the validation time is outside the
	// credential's validity window.
	ErrExpired = errors.New("credential: outside validity period")
	// ErrUntrustedAssignment is returned when the issuer is not trusted
	// to assign a role the credential carries.
	ErrUntrustedAssignment = errors.New("credential: issuer not trusted for role")
	// ErrDistinctUsers is returned when the valid credentials of one
	// request resolve to more than one local user: the caller's mistake,
	// since the PDP cannot mix two users' histories.
	ErrDistinctUsers = errors.New("credential: credentials for distinct users")
)

// Attribute is one typed attribute in a credential, e.g.
// {Type: "employee", Value: "Teller"}.
type Attribute struct {
	Type  string `json:"type"`
	Value string `json:"value"`
}

// Credential binds attributes to a holder, signed by an issuer. The
// zero Signature means unsigned.
type Credential struct {
	// Holder is the user identity asserted by the issuer; in a
	// multi-authority VO this may be an issuer-local alias (see Linker).
	Holder string `json:"holder"`
	// Issuer names the source of authority.
	Issuer string `json:"issuer"`
	// Attributes are the asserted roles/attributes.
	Attributes []Attribute `json:"attributes"`
	// NotBefore and NotAfter delimit validity.
	NotBefore time.Time `json:"notBefore"`
	NotAfter  time.Time `json:"notAfter"`
	// Signature is the issuer's Ed25519 signature over the payload.
	Signature []byte `json:"signature,omitempty"`
}

// payload appends the canonical signed bytes to dst: the credential as
// json.Marshal writes it with the signature cleared — the signature is
// omitempty, so it is left out — byte for byte, errors included
// (FuzzCredentialPayload). Into a caller's stack buffer it allocates
// nothing, so a check can verify a signature without allocating.
func (c *Credential) payload(dst []byte) ([]byte, error) {
	dst = append(dst, `{"holder":`...)
	dst = jsonx.AppendString(dst, c.Holder)
	dst = append(dst, `,"issuer":`...)
	dst = jsonx.AppendString(dst, c.Issuer)
	dst = append(dst, `,"attributes":`...)
	if c.Attributes == nil {
		dst = append(dst, "null"...)
	} else {
		dst = append(dst, '[')
		for i, a := range c.Attributes {
			if i > 0 {
				dst = append(dst, ',')
			}
			dst = append(dst, `{"type":`...)
			dst = jsonx.AppendString(dst, a.Type)
			dst = append(dst, `,"value":`...)
			dst = jsonx.AppendString(dst, a.Value)
			dst = append(dst, '}')
		}
		dst = append(dst, ']')
	}
	var err error
	dst = append(dst, `,"notBefore":`...)
	if dst, err = jsonx.AppendTime(dst, c.NotBefore); err != nil {
		return nil, payloadError(err)
	}
	dst = append(dst, `,"notAfter":`...)
	if dst, err = jsonx.AppendTime(dst, c.NotAfter); err != nil {
		return nil, payloadError(err)
	}
	return append(dst, '}'), nil
}

// payloadError is the error of a payload json.Marshal cannot write: a
// validity bound RFC 3339 cannot spell.
func payloadError(err error) error {
	return fmt.Errorf("credential: marshal payload: %w", jsonx.FieldError("time.Time", err))
}

// Roles extracts the credential's attribute values as role names.
func (c Credential) Roles() []rbac.RoleName {
	out := make([]rbac.RoleName, 0, len(c.Attributes))
	for _, a := range c.Attributes {
		out = append(out, rbac.RoleName(a.Value))
	}
	return out
}

// Authority is a source of authority: a named Ed25519 key pair that
// issues credentials. It models the privilege allocation sub-system.
type Authority struct {
	name string
	priv ed25519.PrivateKey
	pub  ed25519.PublicKey
}

// NewAuthority generates a fresh authority with the given name.
func NewAuthority(name string) (*Authority, error) {
	if name == "" {
		return nil, fmt.Errorf("credential: empty authority name")
	}
	pub, priv, err := ed25519.GenerateKey(rand.Reader)
	if err != nil {
		return nil, fmt.Errorf("credential: generate key: %w", err)
	}
	return &Authority{name: name, priv: priv, pub: pub}, nil
}

// Name returns the authority's name (its issuer string).
func (a *Authority) Name() string { return a.name }

// PublicKey returns the authority's verification key.
func (a *Authority) PublicKey() ed25519.PublicKey { return a.pub }

// Issue signs a credential binding the attributes to the holder for the
// validity window.
func (a *Authority) Issue(holder string, attrs []Attribute, notBefore, notAfter time.Time) (Credential, error) {
	if holder == "" {
		return Credential{}, fmt.Errorf("credential: empty holder")
	}
	if !notAfter.After(notBefore) {
		return Credential{}, fmt.Errorf("credential: empty validity window")
	}
	c := Credential{
		Holder:     holder,
		Issuer:     a.name,
		Attributes: append([]Attribute(nil), attrs...),
		NotBefore:  notBefore,
		NotAfter:   notAfter,
	}
	payload, err := c.payload(nil)
	if err != nil {
		return Credential{}, err
	}
	c.Signature = ed25519.Sign(a.priv, payload)
	return c, nil
}

// IssueRole is a convenience wrapper issuing a single role attribute of
// type "role".
func (a *Authority) IssueRole(holder string, role rbac.RoleName, notBefore, notAfter time.Time) (Credential, error) {
	return a.Issue(holder, []Attribute{{Type: "role", Value: string(role)}}, notBefore, notAfter)
}
