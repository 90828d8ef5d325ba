package lp

import (
	"encoding/json"
	"fmt"
)

// basisJSON is the wire form of a Basis: the model shape it was
// recorded against plus one compact entry per basic column. It exists
// so a basis — a few hundred bytes — can be shipped between steadyd
// peers and turn a remote cache miss into a ~0-pivot local re-solve
// (see pkg/steady/cluster).
type basisJSON struct {
	Vars    int            `json:"vars"`
	Cons    int            `json:"cons"`
	Entries []basisJSONCol `json:"entries"`
}

// basisJSONCol is one basic column. Kind is "var", "neg" (the negative
// part of a free variable), "slack", "bslack" (the slack of a variable
// upper bound), or "surplus"; Idx names the variable or constraint.
type basisJSONCol struct {
	Kind string `json:"k"`
	Idx  int    `json:"i"`
}

// MarshalJSON renders the basis in a stable, versionless wire form:
// shape plus entries in the order the basis holds them, which for a
// solved basis is ascending column order (encodeBasis) — one basis, one
// set of bytes. A nil basis renders as JSON null.
func (b *Basis) MarshalJSON() ([]byte, error) {
	if b == nil {
		return []byte("null"), nil
	}
	out := basisJSON{Vars: b.nVars, Cons: b.nCons, Entries: make([]basisJSONCol, 0, len(b.entries))}
	for _, e := range b.entries {
		var kind string
		switch {
		case e.kind == colStruct && !e.neg:
			kind = "var"
		case e.kind == colStruct:
			kind = "neg"
		case e.kind == colSlack && e.bound:
			kind = "bslack"
		case e.kind == colSlack:
			kind = "slack"
		case e.kind == colSurplus:
			kind = "surplus"
		default:
			return nil, fmt.Errorf("lp: basis entry with unencodable kind %d", e.kind)
		}
		out.Entries = append(out.Entries, basisJSONCol{Kind: kind, Idx: e.idx})
	}
	return json.Marshal(out)
}

// UnmarshalJSON parses a basis previously rendered by MarshalJSON,
// validating shape and entry kinds (hostile input yields an error, not
// a corrupt basis). Index bounds against a concrete model are checked
// later by mapBasis, which discards a basis that does not fit — so a
// decoded basis is always safe to feed to SolveFrom or
// Options.WarmBasis.
func (b *Basis) UnmarshalJSON(data []byte) error {
	var in basisJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return err
	}
	if in.Vars < 0 || in.Cons < 0 {
		return fmt.Errorf("lp: basis with negative shape %dx%d", in.Vars, in.Cons)
	}
	entries := make([]basisEntry, 0, len(in.Entries))
	for i, e := range in.Entries {
		if e.Idx < 0 {
			return fmt.Errorf("lp: basis entry %d has negative index %d", i, e.Idx)
		}
		var ent basisEntry
		switch e.Kind {
		case "var":
			ent = basisEntry{kind: colStruct, idx: e.Idx}
		case "neg":
			ent = basisEntry{kind: colStruct, neg: true, idx: e.Idx}
		case "slack":
			ent = basisEntry{kind: colSlack, idx: e.Idx}
		case "bslack":
			ent = basisEntry{kind: colSlack, bound: true, idx: e.Idx}
		case "surplus":
			ent = basisEntry{kind: colSurplus, idx: e.Idx}
		default:
			return fmt.Errorf("lp: basis entry %d has unknown kind %q", i, e.Kind)
		}
		entries = append(entries, ent)
	}
	b.nVars, b.nCons, b.entries = in.Vars, in.Cons, entries
	return nil
}
