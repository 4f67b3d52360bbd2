package adi

import (
	"time"

	"msod/internal/rbac"
)

// PurgeUserFrom removes one user's records from any store shipped with
// the repo, papering over the signature split between the in-memory
// stores (PurgeUser(user) int) and the durable store (PurgeUser(user)
// (int, error)). ok is false when the store exposes no per-user purge
// at all — callers must treat that as "the records are still there"
// and refuse whatever operation depended on their removal, never as an
// empty success.
func PurgeUserFrom(r Recorder, user rbac.UserID) (n int, ok bool, err error) {
	switch s := r.(type) {
	case *Store:
		return s.PurgeUser(user), true, nil
	case *DurableStore:
		n, err := s.PurgeUser(user)
		return n, true, err
	}
	return 0, false, nil
}

// PurgeBeforeFrom removes every record granted strictly before t, with
// the same signature bridge and the same ok contract as PurgeUserFrom.
func PurgeBeforeFrom(r Recorder, t time.Time) (n int, ok bool, err error) {
	switch s := r.(type) {
	case *Store:
		return s.PurgeBefore(t), true, nil
	case *DurableStore:
		n, err := s.PurgeBefore(t)
		return n, true, err
	}
	return 0, false, nil
}
