package main

import (
	"encoding/json"
	"fmt"
	"time"

	"msod/internal/credential"
	"msod/internal/pdp"
	"msod/internal/policy"
	"msod/internal/rbac"
)

// fixture is everything set-up derives from the seed before a system
// exists: the parsed policy document, the stamped traffic and the
// issued credentials.
type fixture struct {
	pol       *policy.RBACPolicy
	traffic   *traffic
	authority *credential.Authority
	// creds are the issued credentials in issue order (for the ladder).
	creds []credential.Credential
}

// newFixture generates and parses the policy, generates the traffic,
// issues a credential for one op in every credentialEvery, and replays
// the whole stream through a fresh PDP to prove that oracle and engine
// agree before anything is measured.
func newFixture(cfg workloadConfig, size sizing, seed int64) (*fixture, error) {
	pol, err := policy.ParseRBACPolicy(policyXML())
	if err != nil {
		return nil, fmt.Errorf("generated policy: %w", err)
	}
	authority, err := credential.NewAuthority(benchSOA)
	if err != nil {
		return nil, err
	}
	fx := &fixture{pol: pol, authority: authority, traffic: generateTraffic(size, cfg.BankShare, seed)}
	if cfg.CredentialEvery > 0 {
		if err := fx.issueCredentials(cfg.CredentialEvery); err != nil {
			return nil, err
		}
	}
	if err := fx.crossCheck(); err != nil {
		return nil, err
	}
	return fx, nil
}

// issueCredentials signs a role credential for every n-th op of the
// templates, as a push-mode PEP would present it (§5.1).
func (fx *fixture) issueCredentials(n int) error {
	now := time.Now()
	issued := map[string][]byte{}
	i := 0
	for _, tmpls := range [][]template{fx.traffic.bank, fx.traffic.tax} {
		for t := range tmpls {
			for k := range tmpls[t].ops {
				if i++; i%n != 0 {
					continue
				}
				o := &tmpls[t].ops[k]
				key := o.user + "|" + o.role
				if issued[key] == nil {
					c, err := fx.authority.IssueRole(o.user, rbac.RoleName(o.role), now.Add(-time.Hour), now.Add(24*time.Hour))
					if err != nil {
						return err
					}
					raw, err := json.Marshal(c)
					if err != nil {
						return err
					}
					issued[key] = raw
					fx.creds = append(fx.creds, c)
				}
				o.cred = issued[key]
			}
		}
	}
	return nil
}

// crossCheck plays every template once, in order, through a fresh
// memory-ADI PDP and fails on the first answer the oracle did not
// predict. Every instance ends with its last step, so the store must be
// empty afterwards.
func (fx *fixture) crossCheck() error {
	p, err := pdp.New(pdp.Config{Policy: fx.pol})
	if err != nil {
		return err
	}
	d := inprocDecider{p}
	serial := 0
	for f, tmpls := range [][]template{fx.traffic.bank, fx.traffic.tax} {
		for t := range tmpls {
			serial++
			instance := fmt.Sprintf("x%d", serial)
			for k := range tmpls[t].ops {
				o := &tmpls[t].ops[k]
				v, err := d.decide(o, family(f), instance)
				if err != nil {
					return fmt.Errorf("cross-check: %w", err)
				}
				if v.allowed != o.allowed || v.phase != o.phase {
					return fmt.Errorf("cross-check: oracle and engine disagree on %s as %s doing %s (family %d template %d op %d): engine allowed=%v phase=%s, oracle allowed=%v phase=%s",
						o.user, o.role, o.priv.operation, f, t, k, v.allowed, v.phase, o.allowed, o.phase)
				}
				if got := p.Store().Len(); got != o.retained {
					return fmt.Errorf("cross-check: engine retains %d records after family %d template %d op %d, oracle %d",
						got, f, t, k, o.retained)
				}
			}
		}
	}
	return nil
}
