package cluster

import (
	"bufio"
	"bytes"
	"net"
	"sync"
	"testing"
	"time"
)

// rawPeer is a peer that answers every request with the bytes reply
// holds, then closes the connection.
type rawPeer struct {
	url   string
	mu    sync.Mutex
	reply string
}

func newRawPeer(t *testing.T) *rawPeer {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	p := &rawPeer{url: "http://" + ln.Addr().String()}
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				conn.SetDeadline(time.Now().Add(5 * time.Second))
				br := bufio.NewReader(conn)
				var head []byte
				for !bytes.HasSuffix(head, []byte("\r\n\r\n")) {
					b, err := br.ReadByte()
					if err != nil {
						return
					}
					head = append(head, b)
				}
				p.mu.Lock()
				reply := p.reply
				p.mu.Unlock()
				conn.Write([]byte(reply))
			}()
		}
	}()
	return p
}

func (p *rawPeer) answer(reply string) {
	p.mu.Lock()
	p.reply = reply
	p.mu.Unlock()
}

func healthOf(c *Cluster, peer string) bool {
	for _, st := range c.Health() {
		if st.Peer == peer {
			return st.Healthy
		}
	}
	return false
}

// TestHealthProbeHostileReplies: a probe reads whatever head a peer
// sends — plain ones through the scanner, every other through
// http.ReadResponse — and judges the peer by it without a panic: up on
// a 200 either reader takes whose body arrives whole, down on anything
// else. A probe that panics
// is recovered, logged and counted as a down peer, and the loop goes on
// probing the others.
func TestHealthProbeHostileReplies(t *testing.T) {
	raw := newRawPeer(t)
	const self, broken = "http://self.invalid", "http://broken.invalid"
	c, err := New(testConfig(self, []string{self, raw.url, broken}))
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, tc := range []struct {
		reply string
		up    bool
	}{
		{"HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Type: application/json\r\n\r\n{}", true},
		{"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nConnection: close\r\n\r\n", true},
		{"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\nContent-Length: 3\r\n\r\n0\r\n\r\n", true},
		{"HTTP/1.1 200 OK\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\n", false},
		{"HTTP/1.1 200 OK\r\nContent-Length: 99999999999999999999\r\n\r\n", false},
		{"HTTP/1.1 200 OK\r\nContent-Length: -1\r\n\r\n", false},
		{"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nX: a\x00b\r\n\r\n", false},
		{"HTTP/1.1 200 OK\nContent-Length: 0\n\n", true},
		{"HTTP/1.1 200 OK\r\nContent-Length: 0\r\nX: a\r\n b\r\n\r\n", true},
		{"HTTP/1.1 200 OK\r\ncontent-length: 0\r\n\r\n", true},
		{"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nab", false}, // a body cut short is no answer
		{"HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n", false},
		{"HTTP/1.1 100 Continue\r\n\r\n", false},
		{"HTTP/1.1 2000 OK\r\nContent-Length: 0\r\n\r\n", false},
		{"HTTP/1.1 200 OK\r\nContent-Length: 0", false},
		{"garbage\r\n\r\n", false},
		{"", false},
	} {
		raw.answer(tc.reply)
		c.MarkPeer(raw.url, !tc.up)
		c.probeAll()
		if got := healthOf(c, raw.url); got != tc.up {
			t.Errorf("reply %q: healthy %v, want %v", tc.reply, got, tc.up)
		}
	}

	// A nil peer panics its probe on every round.
	c.peers[broken] = nil
	defer delete(c.peers, broken)
	raw.answer("HTTP/1.1 200 OK\r\nContent-Length: 0\r\n\r\n")
	c.MarkPeer(raw.url, false)
	c.MarkPeer(broken, true)
	c.probeAll()
	if !healthOf(c, raw.url) || healthOf(c, broken) {
		t.Fatalf("after a round with a panicking probe: %v", c.Health())
	}
	before := c.Stats().HealthChecks
	c.Start()
	for i := 0; c.Stats().HealthChecks < before+3; i++ {
		if i == 500 {
			t.Fatalf("the health loop stopped after a panicking probe: %d rounds", c.Stats().HealthChecks-before)
		}
		time.Sleep(10 * time.Millisecond)
	}
	c.stopOnce.Do(func() { close(c.stop) })
	c.wg.Wait()
	if !healthOf(c, raw.url) || healthOf(c, broken) {
		t.Fatalf("after the loop ran: %v", c.Health())
	}
}
