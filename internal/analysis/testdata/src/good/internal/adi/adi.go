// Package adi is the clean fixture's retained-ADI stand-in.
package adi

// Save mimics guarded ADI persistence.
func Save(recs []string) error { return nil }
