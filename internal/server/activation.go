package server

import (
	"context"
	"fmt"
	"net/http"

	"msod/internal/adi"
	"msod/internal/bctx"
)

// Context-activation surface. A sharded deployment must agree on which
// FirstStep-gated context instances are running (see adi.OpActivate).
// A FirstStep granted on one shard reaches the others on the requests the
// gateway sends them (closes.go); this surface is the gateway's
// re-synchronisation: it GETs every shard's own view and POSTs the union
// here — to seed a joining shard, after a user or age purge, and before
// its first decision. The surface is always on — a spurious activation is
// deny-safe (it can only cause over-recording), so unlike the handoff
// import it needs no opt-in flag.
const ActivationPath = "/v1/ctx/activation"

// ActivationRequest names bound context instances to mark active.
type ActivationRequest struct {
	Contexts []string `json:"contexts"`
}

// ActivationResponse reports the POST's effect (GET returns the active
// instance list instead).
type ActivationResponse struct {
	// Contexts is, on GET, every context instance open on this shard
	// (with retained history, or activated); on POST it echoes the
	// request.
	Contexts []string `json:"contexts"`
	// Added is how many instances the POST activated (instances already
	// active are skipped — the endpoint is idempotent).
	Added int `json:"added,omitempty"`
}

func (s *Server) handleActivation(w http.ResponseWriter, r *http.Request) {
	switch r.Method {
	case http.MethodGet:
		resp := ActivationResponse{Contexts: []string{}}
		for _, inst := range s.backend.Load().pdp.Store().Instances() {
			resp.Contexts = append(resp.Contexts, inst.String())
		}
		WriteJSON(w, http.StatusOK, resp)
	case http.MethodPost:
		if !s.gate(w, gateTampered|gateReadOnly) {
			return
		}
		var req ActivationRequest
		if status, err := decodeBody(w, r, &req); err != nil {
			WriteJSON(w, status, errorResponse{fmt.Sprintf("decode: %v", err)})
			return
		}
		if len(req.Contexts) == 0 {
			WriteJSON(w, http.StatusBadRequest, errorResponse{"activation requires at least one context instance"})
			return
		}
		ops := make([]adi.Op, 0, len(req.Contexts))
		for _, c := range req.Contexts {
			bound, err := bctx.Parse(c)
			if err != nil {
				WriteJSON(w, http.StatusBadRequest, errorResponse{fmt.Sprintf("context %q: %v", c, err)})
				return
			}
			ops = append(ops, adi.Op{Kind: adi.OpActivate, Bound: bound})
		}
		if eff, ok := s.applyOps(w, "activation", "started on another shard", ops); ok {
			WriteJSON(w, http.StatusOK, ActivationResponse{Contexts: req.Contexts, Added: eff.Activated})
		}
	default:
		WriteJSON(w, http.StatusMethodNotAllowed, errorResponse{"GET or POST required"})
	}
}

// ActiveContexts fetches the shard's active context instances.
func (c *Client) ActiveContexts(ctx context.Context) ([]string, error) {
	var out ActivationResponse
	if err := c.get(ctx, ActivationPath, &out); err != nil {
		return nil, err
	}
	return out.Contexts, nil
}

// Activate idempotently marks the named context instances active on
// the shard, in as many requests as the shard's body bound needs.
func (c *Client) Activate(ctx context.Context, contexts []string) (ActivationResponse, error) {
	total := ActivationResponse{Contexts: contexts}
	for {
		n := activationChunk(contexts)
		var out ActivationResponse
		if err := c.post(ctx, ActivationPath, ActivationRequest{Contexts: contexts[:n]}, &out); err != nil {
			return total, err
		}
		total.Added += out.Added
		if contexts = contexts[n:]; len(contexts) == 0 {
			return total, nil
		}
	}
}

// activationChunk is how many of the contexts, from the first, fit one
// activation request under maxBodyBytes, each counted at the most JSON
// can make of it (every byte escaped as \u00XX); at least one.
func activationChunk(contexts []string) int {
	size := len(`{"contexts":[]}`)
	for i, c := range contexts {
		if size += 6*len(c) + 3; size > maxBodyBytes && i > 0 {
			return i
		}
	}
	return len(contexts)
}
