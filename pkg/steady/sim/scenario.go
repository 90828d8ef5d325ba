package sim

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"sort"
	"strings"

	"repro/pkg/steady/platform"
	"repro/pkg/steady/sim/event"
)

// Scenario describes the conditions a solved schedule is simulated
// under. The zero value is the static scenario: an exact,
// period-granular replay of the reconstructed schedule on the nominal
// platform. Setting any dynamic field (Tasks, Horizon, NodeLoad,
// EdgeLoad, Slowdowns, Adaptive, EpochLength) switches to the
// event-driven float simulator of §5.5, which runs demand-driven
// master-slave tasking on a shortest-path overlay tree under
// time-varying resource performance; dynamic scenarios therefore
// require a masterslave result under the base port model.
//
// Scenario is plain data with a stable JSON encoding: the same value
// drives in-process runs (Engine.Run), sweeps (Engine.Sweep), the
// service endpoints (POST /v1/simulate), and cmd/platgen -trace
// bundles.
type Scenario struct {
	// Name labels the scenario in reports and sweep records; empty
	// selects "static" or "dynamic" automatically.
	Name string `json:"name,omitempty"`

	// Periods overrides the static replay horizon (0 = choose the
	// smallest horizon whose asymptotic-optimality ratio provably
	// reaches 0.95). Any horizon costs about the same: the replay
	// extrapolates once every quota is sustained.
	Periods int64 `json:"periods,omitempty"`

	// Tasks is the number of tasks the dynamic simulation processes
	// (0 with a Horizon = run to the horizon; 0 without = 2000).
	Tasks int `json:"tasks,omitempty"`
	// Horizon stops the dynamic simulation at this time (0 = run
	// until Tasks complete).
	Horizon float64 `json:"horizon,omitempty"`
	// NodeLoad and EdgeLoad attach load traces (multipliers on the
	// base cost, >1 = slower) to named nodes and to edges keyed
	// "from->to".
	NodeLoad map[string]TraceSpec `json:"node_load,omitempty"`
	EdgeLoad map[string]TraceSpec `json:"edge_load,omitempty"`
	// Slowdowns are step-trace sugar: the named node or edge runs
	// Factor times slower during [From, Until). They model host
	// slowdown and, with a large factor, churn-style outages.
	Slowdowns []Slowdown `json:"slowdowns,omitempty"`
	// Arrivals, when set, replaces the master's unbounded task supply
	// with a workload arrival process (recorded trace or a seeded
	// generator); without Tasks or Horizon the run then processes
	// exactly the arrived tasks.
	Arrivals *ArrivalSpec `json:"arrivals,omitempty"`
	// Failures take the named node or edge fully offline during
	// [From, Until) — link failures and node churn, as opposed to the
	// soft multiplicative Slowdowns.
	Failures []Failure `json:"failures,omitempty"`
	// Adaptive re-plans during the run instead of keeping the nominal
	// LP rates (§5.5): each epoch's observations feed an in-process
	// pkg/steady/control Manager, which re-solves the steady-state LP
	// on NWS-like forecasts when one drifts beyond 10 %.
	Adaptive bool `json:"adaptive,omitempty"`
	// EpochLength is the re-planning epoch of Adaptive (0 = engine
	// default).
	EpochLength float64 `json:"epoch,omitempty"`
	// Seed seeds random-walk traces; same seed, same scenario.
	Seed int64 `json:"seed,omitempty"`
}

// Dynamic reports whether the scenario needs the event-driven
// simulator rather than the exact periodic replay.
func (s *Scenario) Dynamic() bool {
	return s.Tasks > 0 || s.Horizon > 0 || len(s.NodeLoad) > 0 ||
		len(s.EdgeLoad) > 0 || len(s.Slowdowns) > 0 || s.Adaptive || s.EpochLength > 0 ||
		s.Arrivals != nil || len(s.Failures) > 0
}

// label returns the report label for the scenario.
func (s *Scenario) label() string {
	if s.Name != "" {
		return s.Name
	}
	if s.Dynamic() {
		return "dynamic"
	}
	return "static"
}

// maxTraceKnots bounds per-trace breakpoints: scenarios cross the
// service boundary, so malformed or hostile specs must fail fast.
const maxTraceKnots = 100000

// Validate checks the scenario's own consistency (platform-dependent
// references are checked at run time).
func (s *Scenario) Validate() error {
	if s.Periods < 0 {
		return fmt.Errorf("sim: negative periods")
	}
	if s.Tasks < 0 || s.Horizon < 0 || s.EpochLength < 0 {
		return fmt.Errorf("sim: negative dynamic bounds")
	}
	for name, ts := range s.NodeLoad {
		if err := ts.validate(); err != nil {
			return fmt.Errorf("sim: node_load[%s]: %w", name, err)
		}
	}
	for key, ts := range s.EdgeLoad {
		if err := ts.validate(); err != nil {
			return fmt.Errorf("sim: edge_load[%s]: %w", key, err)
		}
		if _, _, err := splitEdgeKey(key); err != nil {
			return err
		}
	}
	seen := map[string]bool{}
	for i, sl := range s.Slowdowns {
		if err := sl.validate(); err != nil {
			return fmt.Errorf("sim: slowdown %d: %w", i, err)
		}
		key := "node:" + sl.Node
		if sl.Edge != "" {
			key = "edge:" + sl.Edge
		}
		if seen[key] {
			return fmt.Errorf("sim: slowdown %d repeats %s", i, key)
		}
		seen[key] = true
	}
	if s.Arrivals != nil {
		if err := s.Arrivals.validate(); err != nil {
			return fmt.Errorf("sim: arrivals: %w", err)
		}
	}
	windows := map[string][]event.Window{}
	for i, f := range s.Failures {
		if err := f.validate(); err != nil {
			return fmt.Errorf("sim: failure %d: %w", i, err)
		}
		key := "node:" + f.Node
		if f.Edge != "" {
			key = "edge:" + f.Edge
		}
		windows[key] = append(windows[key], event.Window{From: f.From, Until: f.Until})
	}
	for key, ws := range windows {
		sort.Slice(ws, func(i, j int) bool { return ws[i].From < ws[j].From })
		for i := 1; i < len(ws); i++ {
			if ws[i].From < ws[i-1].Until {
				return fmt.Errorf("sim: overlapping failure windows on %s", key)
			}
		}
	}
	return nil
}

// maxArrivals bounds generated arrival processes, like maxTraceKnots
// for load traces: scenarios cross the service boundary.
const maxArrivals = 100000

// ArrivalSpec describes a workload arrival process at the master.
// Kinds:
//
//	recorded  {"kind":"recorded","times":[...]}          replay a trace
//	poisson   {"kind":"poisson","rate":r,"count":n}      exponential gaps
//	bursty    {"kind":"bursty","burst":b,"every":e,"count":n}
//	          b simultaneous arrivals every e time units
//	diurnal   {"kind":"diurnal","rate":r,"period":p,"peak":a,"count":n}
//	          nonhomogeneous Poisson with rate r*(1+a*sin(2πt/p))
//
// Generator kinds draw from the scenario's seeded rng stream, so the
// same seed yields the same arrival times.
type ArrivalSpec struct {
	Kind   string    `json:"kind"`
	Times  []float64 `json:"times,omitempty"`
	Rate   float64   `json:"rate,omitempty"`
	Count  int       `json:"count,omitempty"`
	Burst  int       `json:"burst,omitempty"`
	Every  float64   `json:"every,omitempty"`
	Period float64   `json:"period,omitempty"`
	Peak   float64   `json:"peak,omitempty"`
}

func (a *ArrivalSpec) validate() error {
	switch a.Kind {
	case "recorded":
		if len(a.Times) == 0 {
			return fmt.Errorf("recorded arrivals need times")
		}
		if len(a.Times) > maxArrivals {
			return fmt.Errorf("recorded arrivals has %d times, limit %d", len(a.Times), maxArrivals)
		}
		for i, t := range a.Times {
			if t < 0 || math.IsNaN(t) || math.IsInf(t, 0) {
				return fmt.Errorf("recorded arrival %d has bad time %v", i, t)
			}
			if i > 0 && t < a.Times[i-1] {
				return fmt.Errorf("recorded arrival times must be non-decreasing")
			}
		}
	case "poisson":
		if a.Rate <= 0 {
			return fmt.Errorf("poisson arrivals need a positive rate")
		}
	case "bursty":
		if a.Burst <= 0 || a.Every <= 0 {
			return fmt.Errorf("bursty arrivals need positive burst and every")
		}
	case "diurnal":
		if a.Rate <= 0 || a.Period <= 0 {
			return fmt.Errorf("diurnal arrivals need positive rate and period")
		}
		if a.Peak < 0 || a.Peak > 1 {
			return fmt.Errorf("diurnal peak must be in [0,1]")
		}
	default:
		return fmt.Errorf("unknown arrival kind %q (recorded|poisson|bursty|diurnal)", a.Kind)
	}
	if a.Kind != "recorded" {
		if a.Count <= 0 {
			return fmt.Errorf("%s arrivals need a positive count", a.Kind)
		}
		if a.Count > maxArrivals {
			return fmt.Errorf("%s arrivals count %d exceeds limit %d", a.Kind, a.Count, maxArrivals)
		}
	}
	return nil
}

// times materializes the arrival process. rng is only consulted by
// the stochastic kinds.
func (a *ArrivalSpec) times(rng *rand.Rand) ([]float64, error) {
	if err := a.validate(); err != nil {
		return nil, err
	}
	switch a.Kind {
	case "recorded":
		return append([]float64(nil), a.Times...), nil
	case "poisson":
		out := make([]float64, 0, a.Count)
		t := 0.0
		for len(out) < a.Count {
			t += rng.ExpFloat64() / a.Rate
			out = append(out, t)
		}
		return out, nil
	case "bursty":
		out := make([]float64, 0, a.Count)
		for k := 0; len(out) < a.Count; k++ {
			for b := 0; b < a.Burst && len(out) < a.Count; b++ {
				out = append(out, float64(k)*a.Every)
			}
		}
		return out, nil
	default: // diurnal: Poisson thinning against the peak rate
		lamMax := a.Rate * (1 + a.Peak)
		out := make([]float64, 0, a.Count)
		t := 0.0
		for len(out) < a.Count {
			t += rng.ExpFloat64() / lamMax
			lam := a.Rate * (1 + a.Peak*math.Sin(2*math.Pi*t/a.Period))
			if rng.Float64()*lamMax <= lam {
				out = append(out, t)
			}
		}
		return out, nil
	}
}

// Failure takes the named node (or edge "from->to") fully offline
// during [From, Until): no compute or transfer may start on it, and
// demand is re-routed around it by the policies only in the sense
// that other requests keep being served.
type Failure struct {
	Node  string  `json:"node,omitempty"`
	Edge  string  `json:"edge,omitempty"`
	From  float64 `json:"from"`
	Until float64 `json:"until"`
}

func (f Failure) validate() error {
	if (f.Node == "") == (f.Edge == "") {
		return fmt.Errorf("needs exactly one of node or edge")
	}
	if f.Edge != "" {
		if _, _, err := splitEdgeKey(f.Edge); err != nil {
			return err
		}
	}
	if f.From < 0 || f.Until <= f.From {
		return fmt.Errorf("needs 0 <= from < until")
	}
	return nil
}

// TraceSpec is the serializable description of a piecewise-constant
// load trace (event.LoadTrace). Kinds:
//
//	constant     {"kind":"constant","value":m}
//	steps        {"kind":"steps","times":[0,...],"mult":[...]}
//	random-walk  {"kind":"random-walk","horizon":h,"step":s,"lo":l,"hi":u}
//
// An empty kind with a positive Value means constant.
type TraceSpec struct {
	Kind    string    `json:"kind,omitempty"`
	Value   float64   `json:"value,omitempty"`
	Times   []float64 `json:"times,omitempty"`
	Mult    []float64 `json:"mult,omitempty"`
	Horizon float64   `json:"horizon,omitempty"`
	Step    float64   `json:"step,omitempty"`
	Lo      float64   `json:"lo,omitempty"`
	Hi      float64   `json:"hi,omitempty"`
}

func (t TraceSpec) validate() error {
	switch t.Kind {
	case "", "constant":
		if t.Value <= 0 {
			return fmt.Errorf("constant trace needs a positive value")
		}
	case "steps":
		if len(t.Times) == 0 || len(t.Times) != len(t.Mult) {
			return fmt.Errorf("steps trace needs matching non-empty times and mult")
		}
		if len(t.Times) > maxTraceKnots {
			return fmt.Errorf("steps trace has %d knots, limit %d", len(t.Times), maxTraceKnots)
		}
		if t.Times[0] != 0 {
			return fmt.Errorf("steps trace must start at time 0")
		}
		for i := 1; i < len(t.Times); i++ {
			if t.Times[i] <= t.Times[i-1] {
				return fmt.Errorf("steps trace breakpoints must increase")
			}
		}
		for _, m := range t.Mult {
			if m <= 0 {
				return fmt.Errorf("steps trace multipliers must be positive")
			}
		}
	case "random-walk":
		if t.Horizon <= 0 || t.Step <= 0 {
			return fmt.Errorf("random-walk trace needs positive horizon and step")
		}
		if t.Horizon/t.Step > maxTraceKnots {
			return fmt.Errorf("random-walk trace would have over %d knots", maxTraceKnots)
		}
		if t.Lo <= 0 || t.Hi < t.Lo {
			return fmt.Errorf("random-walk trace needs 0 < lo <= hi")
		}
	default:
		return fmt.Errorf("unknown trace kind %q (constant|steps|random-walk)", t.Kind)
	}
	return nil
}

// trace materializes the spec. rng is only consulted by random-walk
// traces.
func (t TraceSpec) trace(rng *rand.Rand) (*event.LoadTrace, error) {
	if err := t.validate(); err != nil {
		return nil, err
	}
	switch t.Kind {
	case "", "constant":
		return event.ConstantLoad(t.Value), nil
	case "steps":
		return event.StepLoad(t.Times, t.Mult), nil
	default: // random-walk
		return event.RandomWalkLoad(rng, t.Horizon, t.Step, t.Lo, t.Hi), nil
	}
}

// Slowdown is step-trace sugar: the named node (or edge "from->to")
// runs Factor times slower during [From, Until). Until = 0 means
// forever; a very large Factor models a churned-out host.
type Slowdown struct {
	Node   string  `json:"node,omitempty"`
	Edge   string  `json:"edge,omitempty"`
	Factor float64 `json:"factor"`
	From   float64 `json:"from,omitempty"`
	Until  float64 `json:"until,omitempty"`
}

func (s Slowdown) validate() error {
	if (s.Node == "") == (s.Edge == "") {
		return fmt.Errorf("needs exactly one of node or edge")
	}
	if s.Edge != "" {
		if _, _, err := splitEdgeKey(s.Edge); err != nil {
			return err
		}
	}
	if s.Factor <= 0 {
		return fmt.Errorf("factor must be positive")
	}
	if s.From < 0 || (s.Until != 0 && s.Until <= s.From) {
		return fmt.Errorf("needs 0 <= from < until")
	}
	return nil
}

// spec renders the slowdown as an equivalent steps TraceSpec.
func (s Slowdown) spec() TraceSpec {
	times, mult := []float64{0}, []float64{1}
	if s.From == 0 {
		mult[0] = s.Factor
	} else {
		times = append(times, s.From)
		mult = append(mult, s.Factor)
	}
	if s.Until > 0 {
		times = append(times, s.Until)
		mult = append(mult, 1)
	}
	return TraceSpec{Kind: "steps", Times: times, Mult: mult}
}

// splitEdgeKey parses an "from->to" edge key.
func splitEdgeKey(key string) (from, to string, err error) {
	from, to, ok := strings.Cut(key, "->")
	if !ok || from == "" || to == "" {
		return "", "", fmt.Errorf("sim: edge key %q is not \"from->to\"", key)
	}
	return from, to, nil
}

// EdgeKey renders the canonical edge key for EdgeLoad and Slowdown.
func EdgeKey(from, to string) string { return from + "->" + to }

// Bundle pairs a platform with the scenario it was generated for, so
// the two travel together (cmd/platgen -trace emits bundles).
type Bundle struct {
	// Platform is the platform graph in the repository's canonical
	// JSON schema.
	Platform json.RawMessage `json:"platform"`
	// Scenario is the simulation scenario.
	Scenario Scenario `json:"scenario"`
}

// WriteBundle serializes a platform/scenario pair as JSON.
func WriteBundle(w io.Writer, p *platform.Platform, sc Scenario) error {
	var pb strings.Builder
	if err := p.WriteJSON(&pb); err != nil {
		return err
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(Bundle{Platform: json.RawMessage(pb.String()), Scenario: sc})
}

// ReadBundle deserializes a bundle written by WriteBundle, validating
// both halves.
func ReadBundle(r io.Reader) (*platform.Platform, Scenario, error) {
	var b Bundle
	dec := json.NewDecoder(r)
	if err := dec.Decode(&b); err != nil {
		return nil, Scenario{}, fmt.Errorf("sim: decode bundle: %w", err)
	}
	p, err := platform.ReadJSON(bytes.NewReader(b.Platform))
	if err != nil {
		return nil, Scenario{}, err
	}
	if err := b.Scenario.Validate(); err != nil {
		return nil, Scenario{}, err
	}
	return p, b.Scenario, nil
}
