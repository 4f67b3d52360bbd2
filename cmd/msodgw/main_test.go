package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"testing"
	"time"

	"msod/internal/cluster"
	"msod/internal/node"
	"msod/internal/server"
)

func TestParseShards(t *testing.T) {
	cases := []struct {
		spec string
		want []cluster.Shard
		err  bool
	}{
		{"a=http://h1:1, b=http://h2:2", []cluster.Shard{
			{ID: "a", BaseURL: "http://h1:1"}, {ID: "b", BaseURL: "http://h2:2"}}, false},
		{"http://h1:1", []cluster.Shard{{ID: "http://h1:1", BaseURL: "http://h1:1"}}, false},
		{"a=http://h1:1,,", []cluster.Shard{{ID: "a", BaseURL: "http://h1:1"}}, false},
		{"", nil, true},
		{"  ,  ", nil, true},
		{"=http://h1:1", nil, true},
		{"a=", nil, true},
	}
	for _, c := range cases {
		got, err := parseShards(c.spec)
		if c.err {
			if err == nil {
				t.Errorf("parseShards(%q) accepted", c.spec)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseShards(%q): %v", c.spec, err)
			continue
		}
		if len(got) != len(c.want) {
			t.Errorf("parseShards(%q) = %v, want %v", c.spec, got, c.want)
			continue
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Errorf("parseShards(%q)[%d] = %v, want %v", c.spec, i, got[i], c.want[i])
			}
		}
	}
}

func TestParseFlags(t *testing.T) {
	o, err := parseFlags([]string{"-shards", "a=http://h:1", "-addr", ":0", "-retries", "-1"})
	if err != nil {
		t.Fatal(err)
	}
	if len(o.Shards) != 1 || o.Retries != -1 || o.Addr != ":0" {
		t.Errorf("options = %+v", o)
	}
	// -vnodes is gone: the state file does not record the count, so a
	// restart with another one would move users off their history.
	for _, args := range [][]string{
		{"-addr", ":0"},
		{"-shards", "a=http://h:1", "-vnodes", "64"},
		{"-shards", "a=http://h:1", "-probe", "0"},
	} {
		if _, err := parseFlags(args); err == nil {
			t.Errorf("%q accepted", args)
		}
	}
}

// TestServeSmoke boots msodgw's run over one in-process shard, drives
// a decision through it, then shuts it down.
func TestServeSmoke(t *testing.T) {
	policyPath := filepath.Join(t.TempDir(), "policy.xml")
	if err := os.WriteFile(policyPath, []byte(`
<RBACPolicy id="gw-smoke">
  <RoleList><Role value="Teller"/></RoleList>
  <TargetAccessPolicy>
    <Grant role="Teller" operation="HandleCash" target="till"/>
  </TargetAccessPolicy>
</RBACPolicy>`), 0o600); err != nil {
		t.Fatal(err)
	}
	quiet := slog.New(slog.NewTextHandler(io.Discard, nil))
	sh, err := node.NewShard(node.Config{Policy: policyPath}, quiet)
	if err != nil {
		t.Fatal(err)
	}
	shard := httptest.NewServer(sh)
	defer shard.Close()

	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	cfg, err := parseFlags([]string{"-shards", "s0=" + shard.URL})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- run(ctx, cfg, ln, quiet) }()
	base := fmt.Sprintf("http://%s", ln.Addr())
	resp, err := server.NewClient(base, nil, server.WithTimeout(5*time.Second)).Decision(server.DecisionRequest{
		User: "alice", Roles: []string{"Teller"},
		Operation: "HandleCash", Target: "till", Context: "Branch=York, Period=2006",
	})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Allowed {
		t.Fatalf("decision = %+v", resp)
	}
	hr, err := http.Get(base + server.HealthPath)
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Role   string `json:"role"`
	}
	if err := json.NewDecoder(hr.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if health.Status != "ok" || health.Role != "gateway" {
		t.Errorf("health = %+v", health)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("serve did not shut down")
	}
}
