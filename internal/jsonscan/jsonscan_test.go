package jsonscan

import (
	"encoding/json"
	"math"
	"slices"
	"strings"
	"testing"
)

func TestStr(t *testing.T) {
	for doc, want := range map[string]string{
		`"P1"`:         "P1",
		"\r\n\t \"a\"": "a",
		`""`:           "",
		`"Pé→2"`:       "Pé→2",
		`"a b/c<&>"`:   "a b/c<&>",
		`"a""b"`:       "a",
	} {
		if got, ok := New(doc).Str(); !ok || got != want {
			t.Errorf("Str(%q) = %q, %v; want %q", doc, got, ok, want)
		}
	}
	for _, doc := range []string{
		``, `P1`, `"P1`, `"a\"b"`, `"a\\"`, `"\u0050"`, "\"a\x1fb\"", "\"a\nb\"", "\"a\xffb\"", "\"\xc3\"", `'a'`, `null`, "\f\"a\"",
	} {
		if got, ok := New(doc).Str(); ok {
			t.Errorf("Str(%q) = %q, want it declined", doc, got)
		}
	}
}

// TestStrAtEveryOffset: a string is read eight bytes at a time, so each
// byte Str stops at — the closing quote, or one it declines — is put at
// every offset of the first words, with bytes after it.
func TestStrAtEveryOffset(t *testing.T) {
	for at := range 20 {
		text := strings.Repeat("a", at)
		if got, ok := New(`"` + text + `"` + strings.Repeat("b", 20)).Str(); !ok || got != text {
			t.Errorf("Str(%q…) = %q, %v", text, got, ok)
		}
		if got, ok := New(`"` + strings.Repeat("é", at) + `"`).Str(); !ok || got != strings.Repeat("é", at) {
			t.Errorf("Str of %d é = %q, %v", at, got, ok)
		}
		for _, stop := range []string{`\`, "\x00", "\x1f", "\n", "\xff", "\xc3"} {
			doc := `"` + text + stop + strings.Repeat("b", 20) + `"`
			if got, ok := New(doc).Str(); ok {
				t.Errorf("Str(%q) = %q, want it declined", doc, got)
			}
		}
	}
}

// TestStringsIsObjectOfStr: Strings reads what Object with a Str per
// field reads, and declines what that declines.
func TestStringsIsObjectOfStr(t *testing.T) {
	keys := []string{"a", "bb"}
	viaObject := func(doc string) (vals [2]string, ok bool) {
		c := New(doc)
		ok = c.Object(func(key string) (bit uint, ok bool) {
			k := slices.Index(keys, key)
			if k < 0 {
				return 0, false
			}
			vals[k], ok = c.Str()
			return 1 << k, ok
		}) && c.End()
		return vals, ok
	}
	for _, doc := range []string{
		`{}`, ` { } `, `{"a":"x"}`, `{"bb":"y","a":"x"}`, "{\n  \"a\" : \"x\" ,\n\t\"bb\": \"Pé→1\"\r\n}", `{"a":""}`,
		`{"a":"0123456789abcdefghij","bb":"y"}`, `{"bb":"x"}`,
		``, `{`, `{"a"}`, `{"a":}`, `{"a":"x",}`, `{"a":"x" "bb":"y"}`, `{"a":"x","a":"y"}`, `{"A":"x"}`, `{"b":"x"}`,
		`{"bbb":"x"}`, `{"a":null}`, `{"a":1}`, `{"a":"x\"y"}`, `{"a":"x"}}`, `{"a":"x"} x`, `[]`,
		"{\"a\":\"x\x01\"}", "{\"a\":\"\xff\"}", `{"a":"x"`, `{"a":"x`, `{"a`, "{\x0b\"a\":\"x\"}",
	} {
		c := New(doc)
		var vals [2]Span
		ok := c.Strings(keys, vals[:]) && c.End()
		want, wantOK := viaObject(doc)
		if ok != wantOK || ok && (vals[0].In(doc) != want[0] || vals[1].In(doc) != want[1]) {
			t.Errorf("Strings(%q) = %q %q, %v; Object and Str read %q, %v", doc, vals[0].In(doc), vals[1].In(doc), ok, want, wantOK)
		}
	}
}

func TestNumber(t *testing.T) {
	for doc, want := range map[string]float64{
		`0`: 0, `-0`: math.Copysign(0, -1), `2`: 2, ` 2.05`: 2.05, `1e-7`: 1e-7, `1.5E+21`: 1.5e21, `4e-400`: 0, `12]`: 12, `7,`: 7,
	} {
		if got, ok := New(doc).Number(); !ok || math.Float64bits(got) != math.Float64bits(want) {
			t.Errorf("Number(%q) = %v, %v; want %v", doc, got, ok, want)
		}
	}
	for _, doc := range []string{``, `-`, `+1`, `.5`, `1.`, `1e`, `1e+`, `1e999`, `NaN`, `Infinity`, `"2"`, `null`, `x`} {
		if got, ok := New(doc).Number(); ok {
			t.Errorf("Number(%q) = %v, want it declined", doc, got)
		}
	}
	// A number ends where the grammar ends it; what follows is the
	// caller's to refuse.
	c := New(`01`)
	if got, ok := c.Number(); !ok || got != 0 || c.Pos() != 1 {
		t.Errorf("Number(`01`) = %v, %v at %d; want the leading 0 alone", got, ok, c.Pos())
	}
}

// readObject reads {"a":<string>,"b":[<string>…]} with Object and Array.
func readObject(doc string) (a string, b []string, ok bool) {
	c := New(doc)
	ok = c.Object(func(key string) (bit uint, ok bool) {
		switch key {
		case "a":
			bit = 1
			a, ok = c.Str()
		case "b":
			bit = 2
			ok = c.Array(func() bool {
				s, ok := c.Str()
				b = append(b, s)
				return ok
			})
		}
		return bit, ok
	}) && c.End()
	return a, b, ok
}

func TestObjectAndArray(t *testing.T) {
	for _, doc := range []string{
		`{}`, ` { } `, `{"a":"x"}`, `{"b":[]}`, `{"b":["x","y"],"a":"z"}`, "{\n  \"a\": \"x\",\n  \"b\": [ \"y\" ]\n}\n",
	} {
		a, b, ok := readObject(doc)
		var want struct {
			A string
			B []string
		}
		if err := json.Unmarshal([]byte(doc), &want); err != nil {
			t.Fatal(err)
		}
		if !ok || a != want.A || strings.Join(b, ",") != strings.Join(want.B, ",") {
			t.Errorf("%q read as %q %q %v, encoding/json reads %+v", doc, a, b, ok, want)
		}
	}
	for _, doc := range []string{
		``, `{`, `{"a"}`, `{"a":}`, `{"a":"x",}`, `{"a":"x" "b":[]}`, `{"a":"x","a":"y"}`, `{"A":"x"}`, `{"c":"x"}`, `{"\u0061":"x"}`,
		`{"b":["x",]}`, `{"b":["x" "y"]}`, `{"b":[}`, `{"b":null}`, `{"a":null}`, `{"a":"x"}}`, `{"a":"x"} x`, `[]`, `null`,
	} {
		if a, b, ok := readObject(doc); ok {
			t.Errorf("%q read as %q %q, want it declined", doc, a, b)
		}
	}
}

func TestSkip(t *testing.T) {
	for doc, want := range map[string]string{
		`{}`:                             `{}`,
		`  {"a":[{"b":"}]"}],"c":{}} ,x`: `{"a":[{"b":"}]"}],"c":{}}`,
		`{"a":"{[{["}}`:                  `{"a":"{[{["}`,
		`{"a":1}{"b":2}`:                 `{"a":1}`,
		`{]`:                             `{]`, // the count is all Skip checks
		"{" + strings.Repeat("[", maxSkipDepth-1) + strings.Repeat("]", maxSkipDepth-1) + "}": "{" + strings.Repeat("[", maxSkipDepth-1) + strings.Repeat("]", maxSkipDepth-1) + "}",
	} {
		c := New(doc)
		got, ok := c.Skip()
		if !ok || got != want || doc[c.Pos()-len(got):c.Pos()] != got {
			t.Errorf("Skip(%q) = %q, %v at %d; want %q", doc, got, ok, c.Pos(), want)
		}
	}
	for _, doc := range []string{
		``, ` `, `[{}]`, `"{}"`, `7`, `null`, `{`, `{"a":[}`, `{"a":"}`, `{"a":"\u0041"}`, `{"a":"x\"y"}`, `{"a\\":1}`, `{\}`,
		"{" + strings.Repeat("[", maxSkipDepth) + strings.Repeat("]", maxSkipDepth) + "}",
	} {
		if got, ok := New(doc).Skip(); ok {
			t.Errorf("Skip(%q) = %q, want it declined", doc, got)
		}
	}
}

// FuzzSkip holds Skip's one claim: where the text it returns is a JSON
// value at all, it is the value — what a decoder reading the document
// from the same place takes as its first.
func FuzzSkip(f *testing.F) {
	for _, doc := range []string{
		`{"nodes":[{"name":"P1","w":"3"}],"edges":[{"from":"P1","to":"P2","c":"1/2"}]},"root":"P1"}`,
		`{"a":"}"}`, `{"a":"]","b":["{"]}`, `{"a":1}{"b":2}`, `{]`, `{"a":"\""}`, ` {"a":{"b":{"c":[[[]]]}}}`, `{"a":"x"}}`, `{}}`, `{"a":tru}`,
	} {
		f.Add(doc)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		c := New(doc)
		span, ok := c.Skip()
		if !ok {
			return
		}
		var first json.RawMessage
		err := json.NewDecoder(strings.NewReader(doc)).Decode(&first)
		if valid := json.Valid([]byte(span)); valid != (err == nil) || (valid && string(first) != span) {
			t.Fatalf("Skip(%q) = %q (valid JSON: %v), the decoder's first value is %q (%v)", doc, span, valid, first, err)
		}
	})
}
