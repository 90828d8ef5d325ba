// Package steady is the public facade over the repository's
// steady-state scheduling solvers (internal/core, internal/schedule,
// pkg/steady/lp) for the linear programs of Beaumont, Legrand, Marchal
// and Robert, "Assessing the impact and limits of steady-state
// scheduling for mixed task and data parallelism on heterogeneous
// platforms" (IPDPS 2004).
//
// The facade presents every steady-state problem of §3–§5 of the
// paper through one uniform interface:
//
//	solver, err := steady.New(steady.Spec{Problem: "masterslave", Root: "P1"})
//	result, err := solver.Solve(ctx, platform.Figure1())
//
// A Solver is a reusable, platform-independent description of a
// problem instance (which problem, which root/source node, which
// targets, which port model); Solve applies it to a concrete
// platform graph and returns a Result carrying the optimal
// steady-state throughput together with the per-node and per-link
// activity variables, all as exact rationals (see pkg/steady/rat — the
// schedule period is the lcm of the solution's denominators, so
// floating point is never used on the solve path).
//
// The problems, one row each of the package's problem table:
//
//	masterslave      §3.1 SSMS(G): independent equal-sized tasks
//	scatter          §3.2 SSPS(G): pipelined personalized messages
//	multicast        §3.3 max-operator relaxation (upper bound)
//	multicast-sum    §3.3 sum-LP (achievable lower bound)
//	multicast-trees  §4.3 exact Steiner-arborescence packing
//	broadcast        §3.3 bound with all reachable nodes as targets
//	reduce           §4.2 reduce = broadcast on the reversed graph
//
// masterslave and scatter also accept the send-OR-receive port model
// of §5.1.1 via Spec.Model. pkg/steady/batch builds concurrent,
// cached sweeps on top of this interface.
package steady

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/pkg/steady/lp"
	"repro/pkg/steady/obs"
	"repro/pkg/steady/platform"
	"repro/pkg/steady/rat"
)

// PortModel selects the communication model: the paper's base model
// (§2, separate send and receive ports, full overlap) or the
// restricted shared-port model of §5.1.1, under which schedule
// reconstruction is NP-hard and only Result.EvaluateGreedy applies.
type PortModel = platform.PortModel

const (
	SendAndReceive = platform.SendAndReceive
	SendOrReceive  = platform.SendOrReceive
)

// Spec describes a problem instance independently of any platform.
// Node references are by name and resolved against the platform at
// Solve time, so one Solver can be applied to a whole family of
// platforms (as a batch sweep does).
type Spec struct {
	// Problem is a problem name (see Problems).
	Problem string
	// Root is the master (masterslave), source (scatter, multicast,
	// broadcast) or reduction root (reduce). Empty means the
	// platform's first node.
	Root string
	// Targets are the target node names for scatter and the multicast
	// variants. Ignored by the other problems.
	Targets []string
	// Model is the port model; only masterslave and scatter support
	// SendOrReceive.
	Model PortModel
}

// Validate checks the spec against the problem table without solving
// anything: the problem must be known (ErrUnknownProblem), the
// port model defined and supported, and problem-specific requirements
// met — e.g. scatter and the multicast variants need targets
// (ErrBadSpec). Node names are not checked here: they resolve against
// each platform at Solve time (ErrNoSuchNode). Match the reported
// errors with errors.Is.
func (s Spec) Validate() error {
	_, err := New(s)
	return err
}

// name renders the spec as a compact canonical string: the problem
// name plus any non-default parameters in a fixed order. It is used
// as Solver.Name and therefore as part of the batch cache's
// key, so it must encode every parameter that affects the solution —
// node names are escaped so that names containing the separator
// characters cannot make two distinct specs render identically.
func (s Spec) name() string {
	var parts []string
	if s.Root != "" {
		parts = append(parts, "root="+escapeName(s.Root))
	}
	if len(s.Targets) > 0 {
		esc := make([]string, len(s.Targets))
		for i, t := range s.Targets {
			esc[i] = escapeName(t)
		}
		parts = append(parts, "targets="+strings.Join(esc, "+"))
	}
	if s.Model != SendAndReceive {
		parts = append(parts, "model="+s.Model.String())
	}
	if len(parts) == 0 {
		return s.Problem
	}
	return s.Problem + "[" + strings.Join(parts, ",") + "]"
}

// specReserved are the separator characters of Spec.name's encoding.
const specReserved = "[]=,+%"

// escapeName percent-encodes the separator characters in a node name
// so the rendered spec name is unambiguous. Ordinary names (P1, w03)
// pass through unchanged.
func escapeName(s string) string {
	if !strings.ContainsAny(s, specReserved) {
		return s
	}
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if c := s[i]; strings.IndexByte(specReserved, c) >= 0 {
			fmt.Fprintf(&b, "%%%02X", c)
		} else {
			b.WriteByte(c)
		}
	}
	return b.String()
}

// NodeActivity is one node's share of the steady-state solution.
type NodeActivity struct {
	// Name is the platform node name.
	Name string
	// Alpha is the fraction of each time-unit the node computes.
	Alpha rat.Rat
	// Rate is the node's tasks per time-unit, alpha/w (zero for
	// forwarder-only nodes).
	Rate rat.Rat
}

// LinkActivity is one directed link's share of the steady-state
// solution. Platforms may carry parallel links, so entries are an
// ordered slice (platform edge order), not a map.
type LinkActivity struct {
	From, To string
	// Busy is the fraction of each time-unit the link transfers data.
	Busy rat.Rat
}

// NodeRate is one node's share of a certified schedule on the wire, as
// exact-rational strings: the form /v1/solve replies and control-plane
// epochs both carry.
type NodeRate struct {
	Name string `json:"name"`
	// Alpha is the fraction of each time-unit the node computes.
	Alpha string `json:"alpha"`
	// Rate is the node's tasks per time-unit (empty for
	// forwarder-only nodes).
	Rate string `json:"rate,omitempty"`
}

// LinkRate is one directed link's busy fraction on the wire, as an
// exact-rational string.
type LinkRate struct {
	From string `json:"from"`
	To   string `json:"to"`
	Busy string `json:"busy"`
}

// Result is a solved steady-state problem on a concrete platform.
// All quantities are exact rationals; Check on the underlying
// internal solution has already re-verified the paper's equations
// (one-port constraints, conservation laws) before the Result is
// returned, so a non-nil Result is certified feasible.
type Result struct {
	// Solver is the Name() of the solver that produced the result.
	Solver string
	// Problem is the problem name.
	Problem string
	// Model is the port model the result was computed under.
	Model PortModel
	// Platform is the solved platform (immutable by convention).
	Platform *platform.Platform
	// Fingerprint is the canonical content hash of Platform (see
	// Fingerprint); together with Solver it identifies the result.
	Fingerprint string
	// Throughput is the problem's objective: ntask(G) for
	// masterslave, TP for the distribution problems. For "multicast"
	// (max-operator) it is an upper bound, possibly unachievable.
	Throughput rat.Rat
	// Trees is, for multicast-trees only, the number of candidate
	// Steiner arborescences enumerated by the exact packing.
	Trees int
	// Pivots is the exact simplex pivot count of the underlying LP
	// solve.
	Pivots int
	// FloatPivots and CertifiedCold report how the LP's float64 search
	// was certified (see lp.SolveInfo): its pivots, and whether its
	// basis was refused for the exact two-phase walk.
	FloatPivots   int
	CertifiedCold bool

	raw         any             // underlying internal/core solution, for reconstruction
	row         *builtinProblem // the problem's table row: what the result replays as
	alpha, busy []rat.Rat       // raw's α and s (nil where it has none), read by Nodes and Links
}

// Nodes returns per-node compute activity (masterslave only; nil for the
// distribution problems, whose LPs have no alpha), built on each call:
// a Result stores its solution once, as raw.
func (r *Result) Nodes() []NodeActivity {
	if r.alpha == nil {
		return nil
	}
	out := make([]NodeActivity, len(r.alpha))
	for i, a := range r.alpha {
		out[i] = NodeActivity{Name: r.Platform.Name(i), Alpha: a}
		if w := r.Platform.Weight(i); !w.Inf {
			out[i].Rate = a.Div(w.Val)
		}
	}
	return out
}

// Links returns per-link busy fractions in platform edge order (nil for
// multicast-trees), built on each call as Nodes is.
func (r *Result) Links() []LinkActivity {
	if r.busy == nil {
		return nil
	}
	out := make([]LinkActivity, len(r.busy))
	for e, b := range r.busy {
		ed := r.Platform.Edge(e)
		out[e] = LinkActivity{From: r.Platform.Name(ed.From), To: r.Platform.Name(ed.To), Busy: b}
	}
	return out
}

// Rates renders the result's activity variables in their wire form
// (nil where the problem has none, as Nodes is for the distribution
// problems).
func (r *Result) Rates() (nodes []NodeRate, links []LinkRate) {
	for _, n := range r.Nodes() {
		nr := NodeRate{Name: n.Name, Alpha: n.Alpha.String()}
		if !n.Rate.IsZero() {
			nr.Rate = n.Rate.String()
		}
		nodes = append(nodes, nr)
	}
	for _, l := range r.Links() {
		links = append(links, LinkRate{From: l.From, To: l.To, Busy: l.Busy.String()})
	}
	return nodes, links
}

// ThroughputFloat returns the objective as the nearest float64, for
// display; exact comparisons must use Throughput.
func (r *Result) ThroughputFloat() float64 { return r.Throughput.Float64() }

// Solver is a reusable steady-state problem that can be applied to
// any platform. Implementations must be safe for concurrent use by
// multiple goroutines: a batch sweep calls Solve from its worker
// pool.
type Solver interface {
	// Name identifies the solver instance, including its parameters;
	// it is part of the batch cache's key.
	Name() string
	// Solve runs the problem on p and returns the certified result.
	// The platform is not mutated. Solve honors ctx: once it is done,
	// Solve returns ctx.Err() promptly and leaves nothing running —
	// the computation is on the caller's goroutine and is over when
	// Solve returns, which is what pkg/steady/server's concurrency gate
	// counts on. Options tune the one call (WithObs records it);
	// implementations resolve them with NewSolveConfig.
	Solve(ctx context.Context, p *platform.Platform, opts ...SolveOption) (*Result, error)
}

// Problems returns the problem names, sorted.
func Problems() []string {
	out := make([]string, len(builtins))
	for i := range builtins {
		out[i] = builtins[i].Problem
	}
	sort.Strings(out)
	return out
}

// ProblemInfo documents a problem: what a client needs to
// know to write a Spec for it. GET /v1/solvers serves it verbatim.
type ProblemInfo struct {
	Problem     string `json:"problem"`
	Description string `json:"description"`
	// NeedsTargets reports that Spec.Targets is required.
	NeedsTargets bool `json:"needs_targets"`
	// Models lists the supported port models by name.
	Models []string `json:"models"`
}

// Describe returns the documentation of a problem: what New validates
// a Spec against. An unknown problem reports only its name and the base
// port model.
func Describe(problem string) ProblemInfo {
	info := ProblemInfo{Problem: problem, Models: baseModel}
	if row := lookup(problem); row != nil {
		info = row.ProblemInfo
	}
	// The table's own slice is what New validates against.
	info.Models = slices.Clone(info.Models)
	return info
}

// New builds a Solver for the given spec from the problem table. A
// rejected spec reports ErrUnknownProblem or ErrBadSpec (match with
// errors.Is).
func New(spec Spec) (Solver, error) {
	row := lookup(spec.Problem)
	if row == nil {
		return nil, fmt.Errorf("%w %q (have %s)",
			ErrUnknownProblem, spec.Problem, strings.Join(Problems(), ", "))
	}
	if spec.Model != SendAndReceive && spec.Model != SendOrReceive {
		return nil, fmt.Errorf("%w: undefined port model %d", ErrBadSpec, spec.Model)
	}
	if row.NeedsTargets && len(spec.Targets) == 0 {
		return nil, fmt.Errorf("%w: %s requires targets", ErrBadSpec, spec.Problem)
	}
	if !slices.Contains(row.Models, spec.Model.String()) {
		return nil, fmt.Errorf("%w: %s supports only the send-and-receive model", ErrBadSpec, spec.Problem)
	}
	return &builtin{spec: spec, row: row}, nil
}

// builtin is the Solver for every problem: a spec plus its table row.
type builtin struct {
	spec Spec
	row  *builtinProblem
}

func (b *builtin) Name() string { return b.spec.name() }

func (b *builtin) Solve(ctx context.Context, p *platform.Platform, solveOpts ...SolveOption) (*Result, error) {
	if p == nil {
		return nil, fmt.Errorf("steady: nil platform")
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	root, err := resolveNode(p, b.spec.Root)
	if err != nil {
		return nil, err
	}
	targets, err := resolveTargets(p, b.spec.Targets)
	if err != nil {
		return nil, err
	}
	res, err := b.row.run(ctx, p, root, targets, b.spec.Model, NewSolveConfig(solveOpts...).Obs)
	if err != nil {
		return nil, err
	}
	res.Solver = b.spec.name()
	res.Problem = b.spec.Problem
	res.Model = b.spec.Model
	res.Platform = p
	res.Fingerprint = Fingerprint(p)
	return res, nil
}

// resolveNode maps a node name to its index; empty means node 0.
func resolveNode(p *platform.Platform, name string) (int, error) {
	if name == "" {
		return 0, nil
	}
	id := p.NodeByName(name)
	if id < 0 {
		return 0, fmt.Errorf("%w: unknown node %q", ErrNoSuchNode, name)
	}
	return id, nil
}

func resolveTargets(p *platform.Platform, names []string) ([]int, error) {
	if len(names) == 0 {
		return nil, nil
	}
	out := make([]int, 0, len(names))
	for _, name := range names {
		id := p.NodeByName(strings.TrimSpace(name))
		if id < 0 {
			return nil, fmt.Errorf("%w: unknown target %q", ErrNoSuchNode, name)
		}
		out = append(out, id)
	}
	return out, nil
}

// solveFunc is a problem's solve step over resolved node indices,
// under the port model and LP options of the call.
type solveFunc func(p *platform.Platform, root int, targets []int, model PortModel, opts *lp.Options) (*Result, error)

// builtinProblem is one row of the problem table: the documentation
// GET /v1/solvers prints, the requirements New checks a Spec against,
// the solve step, and what the row's result replays as.
type builtinProblem struct {
	ProblemInfo
	solve solveFunc
	// companion is nil when the result replays its own §4.1
	// reconstruction. A bound with no schedule of its own names the row
	// whose solve replays it, with the bound's own source and targets:
	// on the bound's platform, or on Reverse(G) when reversed (§4.2).
	companion *builtinProblem
	reversed  bool
}

// run is the row's solve step under ctx. It runs on the caller's
// goroutine and stops when ctx does: the engine polls ctx.Done() at
// every pivot, and the model build and the stages before the first
// pivot between their blocks. An interrupted solve returns ctx.Err().
func (b *builtinProblem) run(ctx context.Context, p *platform.Platform, root int, targets []int, model PortModel, reg *obs.Registry) (*Result, error) {
	res, err := b.solve(p, root, targets, model, &lp.Options{Interrupt: ctx.Done(), Obs: reg})
	if errors.Is(err, lp.ErrInterrupted) {
		return nil, ctx.Err()
	}
	if err != nil {
		return nil, err
	}
	res.row = b
	return res, nil
}

// lookup returns the table row of a problem, or nil.
func lookup(problem string) *builtinProblem {
	for _, row := range builtins {
		if row.Problem == problem {
			return row
		}
	}
	return nil
}

var (
	baseModel  = []string{SendAndReceive.String()}
	bothModels = []string{SendAndReceive.String(), SendOrReceive.String()}
)

// multicastTrees is the §4.3 Steiner-arborescence packing: a problem of
// its own, and the schedule the bounds replay as.
var multicastTrees = &builtinProblem{
	ProblemInfo: ProblemInfo{"multicast-trees", "§4.3 exact Steiner-arborescence packing", true, baseModel},
	solve: func(p *platform.Platform, root int, targets []int, _ PortModel, opts *lp.Options) (*Result, error) {
		pack, err := core.SolveTreePackingOpts(p, root, targets, opts)
		if err != nil {
			return nil, err
		}
		res := newResult(pack.Throughput, pack.LP, pack, nil, nil)
		res.Trees = pack.NumTrees
		return res, nil
	},
}

// builtins is the problem table: the one place a problem is defined,
// validated, described and told how to replay. By Edmonds' branching
// theorem the packing meets the broadcast and reduce bounds; for
// multicast it may sit strictly below (the Figure 2 gap).
var builtins = []*builtinProblem{
	{
		ProblemInfo: ProblemInfo{"masterslave", "§3.1 SSMS(G): steady-state master-slave tasking", false, bothModels},
		solve: func(p *platform.Platform, root int, _ []int, model PortModel, opts *lp.Options) (*Result, error) {
			ms, err := core.SolveMasterSlavePortOpts(p, root, model, opts)
			if err != nil {
				return nil, err
			}
			return newResult(ms.Throughput, ms.LP, ms, ms.Alpha, ms.S), nil
		},
	},
	{
		ProblemInfo: ProblemInfo{"scatter", "§3.2 SSPS(G): pipelined personalized messages", true, bothModels},
		solve:       distribution(core.SolveScatterPortOpts),
	},
	{
		ProblemInfo: ProblemInfo{"multicast", "§3.3 max-operator relaxation (upper bound, possibly unachievable)", true, baseModel},
		solve: distribution(func(p *platform.Platform, root int, targets []int, _ PortModel, opts *lp.Options) (*core.Scatter, error) {
			return core.SolveMulticastBoundOpts(p, root, targets, opts)
		}),
		companion: multicastTrees,
	},
	{
		// Scatter's LP under its own name: identical messages sent as
		// distinct ones, an achievable lower bound (§3.3).
		ProblemInfo: ProblemInfo{"multicast-sum", "§3.3 sum-LP (achievable lower bound)", true, baseModel},
		solve:       distribution(core.SolveScatterPortOpts),
	},
	multicastTrees,
	{
		ProblemInfo: ProblemInfo{"broadcast", "§3.3 bound with all reachable nodes as targets", false, baseModel},
		solve: distribution(func(p *platform.Platform, root int, _ []int, _ PortModel, opts *lp.Options) (*core.Scatter, error) {
			return core.SolveBroadcastBoundOpts(p, root, opts)
		}),
		companion: multicastTrees,
	},
	{
		ProblemInfo: ProblemInfo{"reduce", "§4.2 reduce = broadcast on the reversed graph", false, baseModel},
		solve: distribution(func(p *platform.Platform, root int, _ []int, _ PortModel, opts *lp.Options) (*core.Scatter, error) {
			return core.SolveReduceBoundOpts(p, root, opts)
		}),
		companion: multicastTrees,
		reversed:  true,
	},
}

// distribution adapts a §3.2/§3.3 distribution LP (scatter, the
// multicast bounds, broadcast, reduce) to a solveFunc.
func distribution(solve func(*platform.Platform, int, []int, PortModel, *lp.Options) (*core.Scatter, error)) solveFunc {
	return func(p *platform.Platform, root int, targets []int, model PortModel, opts *lp.Options) (*Result, error) {
		sc, err := solve(p, root, targets, model, opts)
		if err != nil {
			return nil, err
		}
		return newResult(sc.Throughput, sc.LP, sc, nil, sc.S), nil
	}
}

// newResult starts a Result from what every core solution carries:
// the objective, how the LP went, and the solution itself for schedule
// reconstruction, with its α and s vectors.
func newResult(throughput rat.Rat, info lp.SolveInfo, raw any, alpha, busy []rat.Rat) *Result {
	return &Result{
		Throughput:    throughput,
		Pivots:        info.Pivots,
		FloatPivots:   info.FloatPivots,
		CertifiedCold: info.CertifiedCold,
		raw:           raw,
		alpha:         alpha,
		busy:          busy,
	}
}
