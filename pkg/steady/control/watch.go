package control

import (
	"fmt"
	"sync"
)

// Subscription is one subscriber's view of a deployment's epoch
// stream. Events delivers epochs in version order; the channel closes
// when the subscriber is evicted (its buffer overflowed — it must
// resubscribe with its last seen version), when the deployment is
// removed, or when the Manager closes. A replace does not close the
// stream: subscribers receive the replacement epoch, marked Resync
// when the new platform's topology makes a delta impossible. Call
// Close when done reading; it only deregisters, the channel is left
// to the garbage collector.
type Subscription struct {
	d    *deployment
	ch   chan *Epoch
	once sync.Once
}

// Events returns the epoch stream. A closed channel means the
// subscription ended server-side (eviction, removal, shutdown);
// resubscribe with the last seen version to resume.
func (s *Subscription) Events() <-chan *Epoch { return s.ch }

// Close deregisters the subscription. It never closes the events
// channel (the publisher owns that side) and is safe to call more
// than once, including after an eviction.
func (s *Subscription) Close() {
	s.once.Do(func() {
		s.d.mu.Lock()
		delete(s.d.watched, s)
		s.d.mu.Unlock()
	})
}

// Watch subscribes to a deployment's epoch stream. lastVersion is the
// subscriber's resume point (the SSE Last-Event-ID): 0 means a fresh
// subscriber, which immediately receives the current epoch; a
// subscriber resuming from version v receives every retained epoch
// after v in order. When v has already fallen out of the bounded
// history, the subscriber instead receives one copy of the current
// epoch marked Resync (and no delta) — it must discard incremental
// state and start over from that full schedule.
func (m *Manager) Watch(id string, lastVersion uint64) (*Subscription, error) {
	d, err := m.lookup(id)
	if err != nil {
		return nil, err
	}
	return d.subscribe(m, lastVersion)
}

// subscribe is Watch after the registry lookup. A Remove that lands
// after the lookup marks d removed under d.mu: either its sweep is
// still ahead and will close this subscription, or it is done and
// subscribe refuses.
func (d *deployment) subscribe(m *Manager, lastVersion uint64) (*Subscription, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.removed {
		return nil, fmt.Errorf("%w: %q", ErrUnknownDeployment, d.id)
	}
	if n := len(d.watched); n >= m.cfg.MaxWatchers {
		return nil, fmt.Errorf("%w: deployment %q has %d watchers, limit %d",
			ErrTooManyWatchers, d.id, n, m.cfg.MaxWatchers)
	}

	var pending []*Epoch
	switch {
	case lastVersion == 0:
		pending = []*Epoch{d.epoch}
	case lastVersion >= d.epoch.Version:
		// Already up to date (or claims to be from the future — the
		// next published epoch will straighten it out).
	case len(d.history) > 0 && d.history[0].Version <= lastVersion+1:
		for _, ep := range d.history {
			if ep.Version > lastVersion {
				pending = append(pending, ep)
			}
		}
	default:
		// The resume point predates the retained history: replaying
		// is impossible, hand over the current epoch in full.
		cp := *d.epoch
		cp.Resync = true
		cp.Delta = nil
		pending = []*Epoch{&cp}
		m.metrics.resyncs.Inc()
	}

	// The buffer always fits the replay plus watchBuffer live epochs,
	// so a resuming subscriber cannot be evicted by its own backlog.
	sub := &Subscription{d: d, ch: make(chan *Epoch, watchBuffer+len(pending))}
	for _, ep := range pending {
		sub.ch <- ep
	}
	d.watched[sub] = struct{}{}
	return sub, nil
}

// Watchers returns the number of live subscriptions across all
// deployments (the steady_control_watchers gauge).
func (m *Manager) Watchers() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	n := 0
	for _, d := range m.deps {
		d.mu.Lock()
		n += len(d.watched)
		d.mu.Unlock()
	}
	return n
}
