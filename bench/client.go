package main

import (
	"bytes"
	"context"
	"io"
	"net/http"
	"time"
)

// client is the benchmark's one closed-loop caller: it sends a
// request, waits for the whole reply, and only then sends the next. It
// is not safe for concurrent use, which is the point — at most one
// request of the load is ever in flight.
type client struct {
	hc  *http.Client
	buf bytes.Buffer
}

func newClient() *client {
	return &client{hc: &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 4, IdleConnTimeout: 90 * time.Second},
		Timeout:   60 * time.Second,
	}}
}

// post sends body and reads the whole reply. The returned bytes are
// valid until the next call.
func (c *client) post(ctx context.Context, url string, body []byte) (int, http.Header, []byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return 0, nil, nil, err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := c.hc.Do(req)
	if err != nil {
		return 0, nil, nil, err
	}
	c.buf.Reset()
	_, err = io.Copy(&c.buf, resp.Body)
	resp.Body.Close()
	if err != nil {
		return resp.StatusCode, resp.Header, nil, err
	}
	return resp.StatusCode, resp.Header, c.buf.Bytes(), nil
}

func micros(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// repResult is what one repetition of a workload's fixed work
// produced on the client side.
type repResult struct {
	ops     int           // primary operations attempted
	failed  int           // operations and oracle checks that failed
	checked int           // oracle checks made inside the repetition, beyond ops
	wall    time.Duration // first request sent to last reply read
	lat     []float64     // latency of every primary operation, µs
	replan  []float64     // control_drift: new regime's first POST to its first epoch on the watch, µs
	notes   []string      // the first few failure descriptions
	layer   map[string]float64
}

func (r *repResult) fail(note string) {
	r.failed++
	if len(r.notes) < 5 {
		r.notes = append(r.notes, note)
	}
}
