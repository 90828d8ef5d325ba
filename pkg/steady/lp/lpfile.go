package lp

import (
	"fmt"
	"io"
	"strings"
)

// WriteLP renders the model in the CPLEX LP file format, so any model
// built here can be cross-checked against an external solver (the
// reproduction itself never needs one — the exact simplex is
// authoritative — but reviewers can).
func (m *Model) WriteLP(w io.Writer) error {
	var b strings.Builder
	if m.sense == Minimize {
		b.WriteString("Minimize\n obj: ")
	} else {
		b.WriteString("Maximize\n obj: ")
	}
	first := true
	for v := 0; v < m.NumVars(); v++ {
		c := m.objCoef(Var(v))
		if c.IsZero() {
			continue
		}
		writeTerm(&b, &first, c.Float64(), m.safeName(Var(v)))
	}
	if first {
		b.WriteString("0 x0")
	}
	b.WriteString("\nSubject To\n")
	for i, c := range m.cons {
		fmt.Fprintf(&b, " c%d: ", i)
		cf := true
		// Merge duplicate variables.
		merged := map[Var]float64{}
		var order []Var
		for _, t := range m.row(i) {
			if _, seen := merged[t.Var]; !seen {
				order = append(order, t.Var)
			}
			merged[t.Var] += t.Coef.Float64()
		}
		for _, v := range order {
			writeTerm(&b, &cf, merged[v], m.safeName(v))
		}
		if cf {
			b.WriteString("0 ")
		}
		switch c.op {
		case LE:
			b.WriteString(" <= ")
		case GE:
			b.WriteString(" >= ")
		case EQ:
			b.WriteString(" = ")
		}
		fmt.Fprintf(&b, "%g\n", c.rhs.Float64())
	}
	b.WriteString("Bounds\n")
	for v := 0; v < m.NumVars(); v++ {
		name := m.safeName(Var(v))
		switch vr := &m.vars[v]; {
		case vr.free:
			fmt.Fprintf(&b, " %s free\n", name)
		case vr.hasUp:
			fmt.Fprintf(&b, " 0 <= %s <= %g\n", name, vr.upper.Float64())
		default:
			fmt.Fprintf(&b, " %s >= 0\n", name)
		}
	}
	b.WriteString("End\n")
	_, err := io.WriteString(w, b.String())
	return err
}

// safeName sanitizes variable names for the LP format (alphanumeric
// and underscore only, never starting with a digit or 'e').
func (m *Model) safeName(v Var) string {
	raw := m.Name(v)
	var b strings.Builder
	fmt.Fprintf(&b, "x%d_", int(v))
	for _, r := range raw {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		}
	}
	return b.String()
}

func writeTerm(b *strings.Builder, first *bool, coef float64, name string) {
	if coef == 0 {
		return
	}
	if *first {
		if coef < 0 {
			fmt.Fprintf(b, "- %g %s ", -coef, name)
		} else {
			fmt.Fprintf(b, "%g %s ", coef, name)
		}
		*first = false
		return
	}
	if coef < 0 {
		fmt.Fprintf(b, "- %g %s ", -coef, name)
	} else {
		fmt.Fprintf(b, "+ %g %s ", coef, name)
	}
}
