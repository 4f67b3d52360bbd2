package adi

import (
	"sort"

	"msod/internal/bctx"
	"msod/internal/rbac"
)

// Browser is the read-only introspection surface of a retained-ADI
// store: enough to enumerate who holds history in which context
// instances without exposing any mutation path. Both store
// implementations (Store, DurableStore) satisfy it; internal/inspect
// builds the /v1/state API on top.
type Browser interface {
	// UserRecords returns copies of the user's records whose context
	// instance falls within pattern, in insertion order. Their Roles are
	// shared with the store and read-only.
	UserRecords(user rbac.UserID, pattern bctx.Name) []Record
	// Instances returns the open context instances — those holding
	// retained records or activated — sorted by name.
	Instances() []bctx.Name
	// UserIDs returns the distinct users with retained records, sorted.
	UserIDs() []rbac.UserID
}

var (
	_ Browser = (*Store)(nil)
	_ Browser = (*DurableStore)(nil)
)

// Instances implements Browser from the instance table, so it never
// scans records.
func (s *Store) Instances() []bctx.Name {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]bctx.Name, 0, len(s.insts))
	for _, in := range s.insts {
		for ; in != nil; in = in.next {
			out = append(out, in.name)
		}
	}
	sortInstances(out)
	return out
}

// UserIDs implements Browser.
func (s *Store) UserIDs() []rbac.UserID {
	s.mu.RLock()
	defer s.mu.RUnlock()
	out := make([]rbac.UserID, 0, len(s.byUser))
	for u := range s.byUser {
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// UserRecords implements Browser.
func (ds *DurableStore) UserRecords(user rbac.UserID, pattern bctx.Name) []Record {
	return ds.mem.UserRecords(user, pattern)
}

// Instances implements Browser.
func (ds *DurableStore) Instances() []bctx.Name { return ds.mem.Instances() }

// UserIDs implements Browser.
func (ds *DurableStore) UserIDs() []rbac.UserID { return ds.mem.UserIDs() }

// BrowserFor returns the introspection surface of a store, if it has
// one (the store implements Browser itself). The second return is false
// for stores with no read-only browse surface.
func BrowserFor(store Recorder) (Browser, bool) {
	b, ok := store.(Browser)
	return b, ok
}

func sortInstances(names []bctx.Name) {
	sort.Slice(names, func(i, j int) bool { return names[i].Key() < names[j].Key() })
}
