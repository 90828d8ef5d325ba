package lp

import (
	"math/big"
	"reflect"
	"sync"
	"testing"

	"repro/pkg/steady/rat"
)

// drainEngines empties both workspace pools and the form pool, so that
// the next solve starts on a new form and new engines as a fresh process
// would: a pooled one has served a solve and kept its storage, a new one
// has none.
func drainEngines() {
	for cap(floatEngines.Get().(*engine[float64]).w) > 0 {
	}
	for cap(ratEngines.Get().(*engine[rat.Rat]).w) > 0 {
	}
	for cap(forms.Get().(*stdForm).cols) > 0 {
	}
}

// workspaceCase is one solve whose every output the reuse tests
// compare: a model builder (a solve never shares a model with another),
// the options beside exactWalk, and whether it takes the exact walk (a
// float engine only for a warm hint's screen, an exact one per stage) or
// searches float-first (a float engine, then an exact one for the
// certificate).
type workspaceCase struct {
	name  string
	build func() *Model
	opts  Options
	exact bool
}

func (c workspaceCase) solve() (*Solution, error) {
	opts := c.opts
	opts.exactWalk = c.exact
	return c.build().SolveOpts(&opts)
}

// solveAll solves every case in order, on whatever the pool holds.
func solveAll(t *testing.T, cases []workspaceCase, before func()) []*Solution {
	t.Helper()
	sols := make([]*Solution, len(cases))
	for i, c := range cases {
		before()
		var err error
		if sols[i], err = c.solve(); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
	}
	return sols
}

// workspaceCases covers every way an engine is left before it goes back
// to its pool: a certified search on small, wide and block-angular
// forms, an Infeasible and an Unbounded search, a search whose basis the
// certificate gives up on — each float-first, then most of them by the
// exact walk.
func workspaceCases(t *testing.T) []workspaceCase {
	t.Helper()
	one := func(op Op, rhs int64) func() *Model {
		return func() *Model {
			m := NewModel()
			x := m.Var("x")
			m.Objective(Maximize, Expr{{x, ri(1)}})
			m.Constrain("lo", Expr{{x, ri(1)}}, op, ri(rhs))
			return m
		}
	}
	cases := []workspaceCase{
		{"small", func() *Model { return randomSeededLEModel(3, 0) }, Options{}, false},
		{"wide", func() *Model { return wideSeededLEModel(9, 0) }, Options{}, false},
		{"wide-dantzig", func() *Model { return wideSeededLEModel(4, 1) }, Options{pricing: pricingDantzig, blandAfter: 2}, false},
		{"block-angular", func() *Model { return blockAngularSeededModel(1, 0) }, Options{}, false},
		{"block-angular-large", func() *Model { return blockAngularSeededModel(6, 2) }, Options{}, false},
		{"infeasible", one(LE, -1), Options{}, false},
		{"unbounded", one(GE, 1), Options{}, false},
		{"certified-cold", objectiveGapsModel, Options{repairBudget: 1}, false},
	}
	is := map[string]func(*Solution) bool{
		"infeasible":     func(s *Solution) bool { return s.Status == Infeasible },
		"unbounded":      func(s *Solution) bool { return s.Status == Unbounded },
		"certified-cold": func(s *Solution) bool { return s.Info.CertifiedCold },
	}
	for i, sol := range solveAll(t, cases, func() {}) {
		if holds := is[cases[i].name]; holds != nil && !holds(sol) {
			t.Fatalf("%s: the case is not what its name says: %v %+v", cases[i].name, sol.Status, sol.Info)
		}
	}
	// Then each by the exact walk, less the two wide walks: hundreds of exact
	// pivots each, where the float-first cases already leave an exact
	// engine behind a wide certificate.
	for _, c := range cases[:len(cases):len(cases)] {
		if c.name != "wide" && c.name != "wide-dantzig" {
			c.name, c.exact = c.name+"/exact", true
			cases = append(cases, c)
		}
	}
	return cases
}

// TestWorkspaceReuseIsInvisible: the engines a solve takes from the
// pools were left by another solve of any shape and outcome, and the
// solve must not be able to tell. For every ordered pair of cases —
// larger form after smaller, smaller after larger, after a failed
// search — B solved on A's engine returns
// exactly what B returns on a new one: status, objective, values,
// duals, basis and the whole SolveInfo.
func TestWorkspaceReuseIsInvisible(t *testing.T) {
	cases := workspaceCases(t)
	fresh := solveAll(t, cases, drainEngines)
	for _, a := range cases {
		after := solveAll(t, cases, func() {
			drainEngines()
			if _, err := a.solve(); err != nil {
				t.Fatalf("%s: %v", a.name, err)
			}
		})
		for i, b := range cases {
			if err := outcomeDiff(b.build(), after[i], fresh[i]); err != nil {
				t.Errorf("%s on the engine %s left: %v", b.name, a.name, err)
			}
		}
	}
}

// TestWorkspaceReuseConcurrent: eight goroutines draw engines from the
// two pools for 200 solves each, every goroutine walking the cases from
// its own offset so that shapes and outcomes interleave; each answer is
// the serial one. Run under -race (CI's go test -race ./... does) it
// also proves no engine is ever in two solves.
func TestWorkspaceReuseConcurrent(t *testing.T) {
	cases := workspaceCases(t)
	serial := solveAll(t, cases, func() {})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for n := 0; n < 200 && !t.Failed(); n++ {
				i := (3*g + n) % len(cases)
				sol, err := cases[i].solve()
				if err == nil {
					err = outcomeDiff(cases[i].build(), sol, serial[i])
				}
				if err != nil {
					t.Errorf("goroutine %d, solve %d, %s: %v", g, n, cases[i].name, err)
				}
			}
		}()
	}
	wg.Wait()
}

// TestResetLeavesANewEngine: what the solves above cannot see — state
// twoPhase or installBasis happens to overwrite before reading — reset
// still owes: after it, every field a new engine starts from reads as
// on a new engine, whatever the engine did before, in both kernels. The
// scratch vectors (y, rho, the peel) are excluded: their readers size
// and zero them.
func TestResetLeavesANewEngine(t *testing.T) {
	t.Run("float", func(t *testing.T) { resetLeavesANewEngine[float64](t, floatKernel{}) })
	t.Run("exact", func(t *testing.T) { resetLeavesANewEngine[rat.Rat](t, ratKernel{}) })
}

func resetLeavesANewEngine[T any](t *testing.T, k kernel[T]) {
	forms := []*stdForm{
		wideSeededLEModel(4, 1).standardize(nil),
		blockAngularSeededModel(6, 2).standardize(nil),
		randomSeededLEModel(3, 0).standardize(nil),
	}
	par := func(s *stdForm) params {
		return s.m.resolveParams(&Options{pricing: pricingDantzig, blandAfter: 2}, len(s.rows), len(s.cols))
	}
	for _, from := range forms {
		for _, to := range forms {
			e := newEngine(k, from, par(from))
			if _, err := e.twoPhase(nil); err != nil {
				t.Fatal(err)
			}
			e.degen, e.blandOn = 7, true // as a search cut short leaves them
			e.reset(to, par(to))
			fresh := newEngine(k, to, par(to))
			for _, f := range []struct {
				name      string
				got, want any
			}{
				{"form", e.s, fresh.s}, {"params", e.par, fresh.par}, {"one", e.one, fresh.one},
				{"cols", e.cols, fresh.cols}, {"b", e.b, fresh.b}, {"rows", e.rows, fresh.rows},
				{"inB", e.inB, fresh.inB}, {"banned", e.banned, fresh.banned}, {"c", e.c, fresh.c},
				{"w", e.w, fresh.w}, {"info", e.info, fresh.info},
				{"counters", []int{e.sinceRefactor, e.degen, len(e.etas), len(e.pool), len(e.xB), len(e.basis), len(e.wnz)}, make([]int, 7)},
				{"blandOn", e.blandOn, false},
			} {
				if !reflect.DeepEqual(f.got, f.want) {
					t.Errorf("%d rows onto %d: %s is %v after reset, %v on a new engine", len(from.rows), len(to.rows), f.name, f.got, f.want)
				}
			}
		}
	}
}

// TestPooledExactEngineHoldsNothing: an exact engine goes back to its
// pool holding no form, no caller's channel and no nonzero rational
// anywhere within the capacity of any slice: the pool outlives the
// solve, and what it holds the collector cannot free. Every slice that
// can hold a rational is found by reflection, so a field added later is
// held to this too.
func TestPooledExactEngineHoldsNothing(t *testing.T) {
	s := wideSeededLEModel(4, 1).standardize(nil)
	e := ratEngine(s, s.m.resolveParams(&Options{Interrupt: make(chan struct{})}, len(s.rows), len(s.cols)))
	status, err := e.twoPhase(nil)
	if err != nil || status != Optimal {
		t.Fatalf("%v %v", status, err)
	}
	solution(e, status) // prices y
	e.unitBtran(0)      // fills rho, which only dual and banArtificials use
	for _, name := range []string{"cols", "b", "xB", "etas", "pool", "c", "y", "rho", "w"} {
		if !holds(e, name) {
			t.Fatalf("%s holds nothing before the engine goes back: the solve proves nothing about it", name)
		}
	}

	putRatEngine(e)
	if e.s != nil || e.par.interrupt != nil {
		t.Fatal("the pooled engine holds its form or its caller's channel")
	}
	for _, name := range ratSlices(e) {
		if holds(e, name) {
			t.Errorf("the pooled engine's %s holds a nonzero value within its capacity", name)
		}
	}
}

// TestPooledFormHoldsNothing: what outlives a solve holds nothing of it.
// A standardized form goes back to its pool, and a model a solve path is
// done with goes on to its next build (Model.Reset), holding no model,
// no namer and no nonzero value — a rational with a big part, a name —
// within the capacity of any slice that can hold a rational: what they
// hold the collector cannot free. The slices are found by reflection, so
// a field added later is held to this too.
func TestPooledFormHoldsNothing(t *testing.T) {
	huge := rat.FromBig(new(big.Rat).SetFrac(new(big.Int).Lsh(big.NewInt(1), 70), big.NewInt(3)))
	build := func(named bool) *Model {
		name := func(s string) string {
			if named {
				return s
			}
			return ""
		}
		m := NewModel()
		x, y := m.VarRange(name("x"), huge), m.Var(name("y"))
		m.Objective(Maximize, Expr{{x, huge}, {y, ri(1)}})
		m.Le(name("cap"), Expr{{x, ri(1)}, {y, huge}}, huge)
		m.Ge(name("floor"), Expr{{x, ri(1)}, {y, ri(1)}}, ri(1))
		// Last, so that no later row writes over the slot its cancelled
		// term leaves in standardize's sums.
		m.Le(name("cancel"), Expr{{x, ri(1)}, {y, ri(1)}, {x, ri(-1)}}, huge)
		return m
	}
	m := build(false)
	m.NameBy(func() *Model { return build(true) })
	if got := m.Name(1); got != "y" {
		t.Fatalf("name %q, want y", got)
	}
	if sol, err := m.Solve(); err != nil || sol.Status != Optimal {
		t.Fatalf("%v %v", sol, err)
	}

	s := m.standardize(nil)
	for _, name := range ratSlices(s) {
		if !holds(s, name) {
			t.Fatalf("the form's %s holds nothing before it goes back: the solve proves nothing about it", name)
		}
	}
	putForm(s)
	if s.m != nil {
		t.Fatal("the pooled form holds its model")
	}
	for _, name := range ratSlices(s) {
		if holds(s, name) {
			t.Errorf("the pooled form's %s holds a nonzero value within its capacity", name)
		}
	}

	for _, name := range ratSlices(m) {
		if !holds(m, name) {
			t.Fatalf("the model's %s holds nothing before Reset: the test proves nothing about it", name)
		}
	}
	m.Reset()
	if m.namer != nil || m.twin != nil {
		t.Fatal("the reset model holds its namer or the model it built")
	}
	for _, name := range ratSlices(m) {
		if holds(m, name) {
			t.Errorf("the reset model's %s holds a nonzero value within its capacity", name)
		}
	}
	// Built again, it is the model NewModel would give: named by its new
	// namer, and solved to the same optimum.
	x := m.Var("")
	m.Objective(Maximize, Expr{{x, ri(1)}})
	m.Le("", Expr{{x, ri(1)}}, ri(2))
	m.NameBy(func() *Model {
		named := NewModel()
		named.Var("z")
		return named
	})
	if got := m.Name(x); got != "z" {
		t.Fatalf("a reset model's namer answers %q, want z", got)
	}
	if sol, err := m.Solve(); err != nil || !sol.Objective.Equal(ri(2)) {
		t.Fatalf("a reset model solves to %v %v, want 2", sol, err)
	}
}

// holds reports that the slice field name of the struct p points at has
// a nonzero element within its capacity.
func holds(p any, name string) bool {
	v := reflect.ValueOf(p).Elem().FieldByName(name)
	v = v.Slice(0, v.Cap())
	for i := 0; i < v.Len(); i++ {
		if !v.Index(i).IsZero() {
			return true
		}
	}
	return false
}

// ratSlices lists the slice fields of the struct p points at that can
// hold a rational.
func ratSlices(p any) []string {
	var names []string
	t := reflect.TypeOf(p).Elem()
	for i := 0; i < t.NumField(); i++ {
		if f := t.Field(i); f.Type.Kind() == reflect.Slice && holdsRat(f.Type) {
			names = append(names, f.Name)
		}
	}
	return names
}

// holdsRat reports that a value of type t can hold a rational.
func holdsRat(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Slice, reflect.Array:
		return holdsRat(t.Elem())
	case reflect.Struct:
		if t == reflect.TypeOf(rat.Rat{}) {
			return true
		}
		for i := 0; i < t.NumField(); i++ {
			if holdsRat(t.Field(i).Type) {
				return true
			}
		}
	}
	return false
}
