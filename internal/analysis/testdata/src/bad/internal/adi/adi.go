// Package adi is a fixture stand-in for the retained-ADI package: the
// analyzers match it by the internal/adi path suffix.
package adi

// Browser mimics the read-only browse surface.
type Browser struct{}

// BrowserFor mimics a lookup whose trailing result is a bool.
func BrowserFor(store any) (*Browser, bool) { return nil, false }

// Save mimics guarded ADI persistence.
func Save(recs []string) error { return nil }
