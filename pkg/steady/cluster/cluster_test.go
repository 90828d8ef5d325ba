package cluster

import (
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"
)

func testConfig(self string, peers []string) Config {
	return Config{Self: self, Peers: peers, HealthInterval: 10 * time.Millisecond}
}

func TestConfigValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("accepted a config without Self")
	}
	if _, err := New(Config{Self: "http://a", Peers: []string{"http://b"}}); err == nil {
		t.Fatal("accepted a peer list missing self")
	}
	// URLs the cluster cannot dial: the error names the one refused.
	for _, tc := range []struct{ self, bad string }{
		{"localhost:8081", "localhost:8081"}, // scheme "localhost", no host
		{"http://a", "localhost:8082"},
		{"http://a", "https://b"},
		{"http://a", "http://"},
		{"http://a", "http:///v1"},
		{"http://a", "//b:8080"},
		{"http://a", "http://b:8080/%zz"},
		{"http://a", "http://u:p@b:80"}, // userinfo, a query or a fragment would not be sent
		{"http://a", "http://b:80/?x=1"},
		{"http://a", "http://b:80/?"},
		{"http://a", "http://b:80/#f"},
		{"http://a", "http://b#"},
	} {
		_, err := New(Config{Self: tc.self, Peers: []string{tc.self, tc.bad}})
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%q", tc.bad)) {
			t.Errorf("self %q, peer %q: error %v, want one naming %q", tc.self, tc.bad, err, tc.bad)
		}
	}
	c, err := New(Config{Self: "http://a", Peers: []string{"http://a", "http://b"}})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Owner("key") == "" {
		t.Fatal("two-peer cluster owns nothing")
	}
}

// TestMarkPeerRebalances: marking a peer down excludes it from routing
// immediately and keeps survivors' keys in place; marking it back up
// restores the original ring exactly.
func TestMarkPeerRebalances(t *testing.T) {
	peers := []string{"http://a", "http://b", "http://c"}
	c, err := New(testConfig("http://a", peers))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	keys := testKeys(2000)
	before := map[string]string{}
	for _, k := range keys {
		before[k] = c.Owner(k)
	}
	c.MarkPeer("http://b", false)
	for _, k := range keys {
		owner := c.Owner(k)
		if owner == "http://b" {
			t.Fatalf("down peer still owns %q", k)
		}
		if before[k] != "http://b" && owner != before[k] {
			t.Fatalf("key %q moved %q -> %q though its owner is up", k, before[k], owner)
		}
	}
	c.MarkPeer("http://b", true)
	for _, k := range keys {
		if c.Owner(k) != before[k] {
			t.Fatalf("recovery did not restore ownership of %q", k)
		}
	}
	// Self can never be marked down.
	c.MarkPeer("http://a", false)
	for _, st := range c.Health() {
		if st.Self && !st.Healthy {
			t.Fatal("self was marked unhealthy")
		}
	}
}

// TestShouldForward covers the routing decision table: own key (no),
// peer-owned key (yes), peer-owned but peer down (owner moves; forwards
// to the successor or serves locally).
func TestShouldForward(t *testing.T) {
	peers := []string{"http://a", "http://b"}
	c, err := New(testConfig("http://a", peers))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var mine, theirs string
	for _, k := range testKeys(100) {
		if c.Owner(k) == "http://a" && mine == "" {
			mine = k
		}
		if c.Owner(k) == "http://b" && theirs == "" {
			theirs = k
		}
	}
	if mine == "" || theirs == "" {
		t.Fatal("could not find keys on both peers")
	}
	if _, ok := c.ShouldForward(mine); ok {
		t.Fatal("wants to forward its own key")
	}
	owner, ok := c.ShouldForward(theirs)
	if !ok || owner != "http://b" {
		t.Fatalf("ShouldForward(peer key) = %q, %v", owner, ok)
	}
	c.MarkPeer("http://b", false)
	if owner, ok := c.ShouldForward(theirs); ok {
		t.Fatalf("wants to forward to a down peer's replacement %q (2-peer ring: self)", owner)
	}
}

// TestHealthLoop: a live health loop detects a dead peer and a healed
// one through real HTTP probes of /v1/cluster.
func TestHealthLoop(t *testing.T) {
	var mu sync.Mutex
	up := true
	peerSrv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		ok := up
		mu.Unlock()
		if r.URL.Path != "/v1/cluster" || !ok {
			http.Error(w, "down", http.StatusServiceUnavailable)
			return
		}
		w.WriteHeader(http.StatusOK)
	}))
	defer peerSrv.Close()

	self := "http://self.invalid"
	c, err := New(testConfig(self, []string{self, peerSrv.URL}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Start()

	healthy := func(want bool) bool {
		for i := 0; i < 100; i++ {
			for _, st := range c.Health() {
				if st.Peer == peerSrv.URL && st.Healthy == want {
					return true
				}
			}
			time.Sleep(10 * time.Millisecond)
		}
		return false
	}
	if !healthy(true) {
		t.Fatal("peer never became healthy")
	}
	mu.Lock()
	up = false
	mu.Unlock()
	if !healthy(false) {
		t.Fatal("dead peer never detected")
	}
	mu.Lock()
	up = true
	mu.Unlock()
	if !healthy(true) {
		t.Fatal("healed peer never detected")
	}
	if c.Stats().HealthChecks == 0 {
		t.Fatal("no health-check rounds counted")
	}
}
