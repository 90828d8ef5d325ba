package control

import "repro/pkg/steady"

// Observation is one telemetry measurement of a live platform: either
// a node's observed compute cost (seconds per task — set Node) or a
// directed link's observed transfer cost (seconds per unit-size
// message — set From and To). Exactly one of the two forms must be
// used. Value carries the measured cost; it must be finite and
// strictly positive (CheckMeasurement is the shared guard),
// and a batch containing any invalid observation is rejected whole —
// no forecaster sees a partial batch.
type Observation struct {
	// Node names a platform node for a compute-cost measurement.
	Node string `json:"node,omitempty"`
	// From and To name a directed platform edge for a transfer-cost
	// measurement.
	From string `json:"from,omitempty"`
	To   string `json:"to,omitempty"`
	// Value is the measured cost in the platform's units (w for
	// nodes, c for edges).
	Value float64 `json:"value"`
}

// NodeRate and LinkRate are one node's and one link's share of a
// published schedule epoch: the same wire types /v1/solve renders.
type (
	NodeRate = steady.NodeRate
	LinkRate = steady.LinkRate
)

// Delta lists what changed between two consecutive epochs of the same
// deployment: only the nodes and links whose rates differ from the
// previous version appear. A subscriber that already holds
// FromVersion can apply the delta instead of re-reading the full
// schedule.
type Delta struct {
	// FromVersion is the epoch this delta applies on top of.
	FromVersion uint64 `json:"from_version"`
	// ThroughputChanged reports that the objective moved (the new
	// value is in the enclosing epoch).
	ThroughputChanged bool `json:"throughput_changed"`
	// Nodes and Links hold only the entries whose rates changed.
	Nodes []NodeRate `json:"nodes,omitempty"`
	Links []LinkRate `json:"links,omitempty"`
}

// Epoch is one published version of a deployment's certified
// steady-state schedule. Every quantity is exact (rational strings);
// the epoch is self-contained — Nodes and Links always carry the full
// schedule — and Delta additionally lists what changed since the
// previous version.
type Epoch struct {
	// Deployment is the owning deployment id.
	Deployment string `json:"deployment"`
	// Version numbers epochs per deployment, starting at 1; it is the
	// SSE event id on /v1/deployments/{id}/watch.
	Version uint64 `json:"version"`
	// Solver is the canonical solver name; Fingerprint the content
	// hash of the estimated platform this epoch was solved on.
	Solver      string `json:"solver"`
	Fingerprint string `json:"fingerprint"`
	// Throughput is the exact objective, Value its float rendering.
	Throughput string  `json:"throughput"`
	Value      float64 `json:"value"`
	// Nodes and Links carry the full certified schedule.
	Nodes []NodeRate `json:"nodes,omitempty"`
	Links []LinkRate `json:"links"`
	// Pivots counts the exact simplex pivots of the solve behind this
	// epoch.
	Pivots int `json:"pivots"`
	// WarmStarted is always false: an epoch is a cold solve of its
	// estimate, the same solve /v1/solve runs on that platform.
	//
	// Deprecated: nothing sets it; it stays for readers of the field.
	WarmStarted bool `json:"warm_started"`
	// CacheHit reports that the solve was served from the LP cache
	// (an estimated platform seen before, e.g. drift that reverted).
	CacheHit bool `json:"cache_hit"`
	// Reason says why the epoch was published: "create", "replace" or
	// "drift". MaxDrift is, for drift epochs, the largest relative
	// change between a forecast and the previous model.
	Reason   string  `json:"reason"`
	MaxDrift float64 `json:"max_drift,omitempty"`
	// Delta lists the changes since the previous version; nil on the
	// first epoch and when the platform topology changed (replace).
	Delta *Delta `json:"delta,omitempty"`
	// Resync marks an epoch the subscriber must take whole, discarding
	// any incrementally-applied state: a replay-gap copy (its
	// Last-Event-ID fell behind the retained history) or a replace
	// whose new platform topology makes a delta impossible.
	Resync bool `json:"resync,omitempty"`
}

// ModelNode is one node of a deployment's platform model as reported
// by Snapshot: the nominal cost, the value the current schedule was
// solved on, and the live forecast state.
type ModelNode struct {
	Name string `json:"name"`
	// Nominal is the node's declared w ("inf" for forwarder-only
	// nodes); Current is the exact value in the current model.
	Nominal string `json:"nominal"`
	Current string `json:"current"`
	// Forecast is the predictor's next-value forecast (0 before any
	// observation) and Predictor the currently-best sub-predictor.
	Forecast  float64 `json:"forecast,omitempty"`
	Predictor string  `json:"predictor,omitempty"`
	// Observations counts accepted measurements for this series.
	Observations int64 `json:"observations"`
}

// ModelLink is one directed edge of the platform model, mirroring
// ModelNode for transfer costs.
type ModelLink struct {
	From         string  `json:"from"`
	To           string  `json:"to"`
	Nominal      string  `json:"nominal"`
	Current      string  `json:"current"`
	Forecast     float64 `json:"forecast,omitempty"`
	Predictor    string  `json:"predictor,omitempty"`
	Observations int64   `json:"observations"`
}

// Snapshot is the full observable state of one deployment: identity,
// the current epoch, the platform model with its forecast state, and
// lifetime counters. GET /v1/deployments/{id} returns it verbatim.
type Snapshot struct {
	ID      string `json:"id"`
	Problem string `json:"problem"`
	Solver  string `json:"solver"`
	Model   string `json:"model"`
	// Epoch is the current certified schedule.
	Epoch *Epoch `json:"epoch"`
	// Nodes and Links describe the platform model and per-series
	// forecast state.
	Nodes []ModelNode `json:"model_nodes"`
	Links []ModelLink `json:"model_links"`
	// Watchers is the number of live /watch subscribers.
	Watchers int `json:"watchers"`
	// Resolves counts solves behind published epochs (the create
	// included).
	Resolves int64 `json:"resolves"`
	// WarmResolves is always 0: no epoch starts from another's basis.
	//
	// Deprecated: nothing sets it; it stays for readers of the field.
	WarmResolves int64 `json:"warm_resolves"`
	// DriftEvents counts ticks on which drift beyond the threshold
	// was detected (whether or not a re-solve was allowed to fire).
	DriftEvents int64 `json:"drift_events"`
	// Observations counts accepted telemetry measurements.
	Observations int64 `json:"observations"`
}
