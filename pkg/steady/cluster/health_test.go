package cluster

import (
	"bufio"
	"bytes"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// rawPeer is a peer that answers every request with the bytes reply
// holds, then closes the connection. While hold is set, an answer
// waits until hold is closed.
type rawPeer struct {
	url   string
	calls atomic.Int32 // request heads read
	mu    sync.Mutex
	reply string
	hold  chan struct{}
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
				p.calls.Add(1)
				p.mu.Lock()
				reply, hold := p.reply, p.hold
				p.mu.Unlock()
				if hold != nil {
					<-hold
				}
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

// holdAnswers makes every answer from now on wait for the returned
// release, which lets them go and stops holding later ones. The test's
// cleanup releases them too.
func (p *rawPeer) holdAnswers(t *testing.T) (release func()) {
	hold := make(chan struct{})
	p.mu.Lock()
	p.hold = hold
	p.mu.Unlock()
	var once sync.Once
	release = func() {
		once.Do(func() {
			p.mu.Lock()
			p.hold = nil
			p.mu.Unlock()
			close(hold)
		})
	}
	t.Cleanup(release)
	return release
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
		c.probeAll(false)
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
	c.probeAll(false)
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
	c.stop()
	c.wg.Wait()
	if !healthOf(c, raw.url) || healthOf(c, broken) {
		t.Fatalf("after the loop ran: %v", c.Health())
	}
}

const unavailable = "HTTP/1.1 503 Service Unavailable\r\nContent-Length: 0\r\n\r\n"

// TestHeardCoalesces: a burst of calls naming a down peer costs at most
// two probe rounds, the one it kicks and the one asked for while that
// round ran, however long the burst.
func TestHeardCoalesces(t *testing.T) {
	raw := newRawPeer(t)
	raw.answer(unavailable)
	const self = "http://self.invalid"
	c, err := New(Config{Self: self, Peers: []string{self, raw.url}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Start()
	waitFor(t, "the first round", func() bool { return c.Stats().HealthChecks == 1 })
	if healthOf(c, raw.url) {
		t.Fatal("a peer answering 503 is healthy")
	}
	release := raw.holdAnswers(t)
	for range 1000 {
		c.Heard(raw.url)
	}
	waitFor(t, "the kicked probe", func() bool { return raw.calls.Load() == 2 })
	release()
	quiet := func() bool { return c.rounds.Load() == 0 && len(c.kick) == 0 }
	waitFor(t, "the kicked rounds to end", quiet)
	time.Sleep(50 * time.Millisecond)
	waitFor(t, "the kicked rounds to end", quiet)
	if rounds := c.Stats().HealthChecks - 1; rounds < 1 || rounds > 2 {
		t.Fatalf("1000 calls from a down peer ran %d probe rounds, want 1 or 2", rounds)
	}
	if probes := raw.calls.Load() - 1; probes > 2 {
		t.Fatalf("1000 calls from a down peer sent %d probes, want at most 2", probes)
	}
}

// TestHeardSpacesRounds: a peer that calls in nonstop while its probes
// are refused is probed at most once per kickGap, not back to back.
func TestHeardSpacesRounds(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	refused := "http://" + ln.Addr().String()
	ln.Close() // every probe of it is refused at once
	const self = "http://self.invalid"
	c, err := New(Config{Self: self, Peers: []string{self, refused}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Start()
	waitFor(t, "the first round", func() bool { return c.Stats().HealthChecks == 1 })
	const span = 200 * time.Millisecond
	for end := time.Now().Add(span); time.Now().Before(end); {
		c.Heard(refused)
	}
	if rounds, most := c.Stats().HealthChecks-1, int64(span/kickGap)+2; rounds > most {
		t.Fatalf("%v of calls from a refusing peer ran %d probe rounds, want at most %d", span, rounds, most)
	}
}

// TestHeardIgnoresStrangers: a call naming self, nobody, or a URL that
// is not a configured peer asks for no probe, even while a peer is
// down; a call naming a healthy peer with no round running asks for
// none either.
func TestHeardIgnoresStrangers(t *testing.T) {
	const self, a, b = "http://self.invalid", "http://a.invalid", "http://b.invalid"
	c, err := New(Config{Self: self, Peers: []string{self, a, b}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.MarkPeer(a, false)
	for _, from := range []string{self, "", "http://stranger.invalid", a + "/", "A.invalid", b} {
		c.Heard(from)
		if len(c.kick) != 0 {
			t.Fatalf("a call from %q asked for a probe round", from)
		}
	}
	c.Heard(a)
	if len(c.kick) != 1 {
		t.Fatal("a call from the down peer asked for no probe round")
	}
}

// TestCloseCutsProbeShort: Close with a kicked round pending and a probe
// in flight returns before the probe's own deadline and leaves no
// goroutine behind.
func TestCloseCutsProbeShort(t *testing.T) {
	raw := newRawPeer(t)
	raw.answer(unavailable)
	release := raw.holdAnswers(t)
	base := runtime.NumGoroutine()
	const self = "http://self.invalid"
	c, err := New(Config{Self: self, Peers: []string{self, raw.url}, HealthInterval: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	c.Start()
	waitFor(t, "the first probe", func() bool { return raw.calls.Load() == 1 })
	c.Heard(raw.url)
	if len(c.kick) != 1 {
		t.Fatal("a call heard during a round asked for no round after it")
	}
	start := time.Now()
	closed := make(chan struct{})
	go func() {
		c.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("Close did not return")
	}
	if took := time.Since(start); took >= healthTimeout {
		t.Fatalf("Close took %v: it waited for the probe's own deadline", took)
	}
	release()
	waitFor(t, "the goroutines to end after Close", func() bool { return runtime.NumGoroutine() <= base })
	if raw.calls.Load() != 1 {
		t.Fatalf("%d probes, want the first one only", raw.calls.Load())
	}
}
