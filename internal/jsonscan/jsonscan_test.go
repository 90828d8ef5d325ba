package jsonscan

import (
	"encoding/json"
	"math"
	"slices"
	"strconv"
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

// viaObject reads doc with Object, taking keys[k] with a Str for k < nstr
// and with a Number after: the reading Fields stands for.
func viaObject(doc string, keys []string, nstr int) (strs []string, nums []float64, ok bool) {
	strs, nums = make([]string, nstr), make([]float64, len(keys)-nstr)
	c := New(doc)
	ok = c.Object(func(key string) (bit uint, ok bool) {
		k := slices.Index(keys, key)
		if k < 0 {
			return 0, false
		}
		if k < nstr {
			strs[k], ok = c.Str()
		} else {
			nums[k-nstr], ok = c.Number()
		}
		return 1 << k, ok
	}) && c.End()
	return strs, nums, ok
}

// TestStringsIsObjectOfStr: Fields over string keys reads what Object
// with a Str per field reads, and declines what that declines.
func TestStringsIsObjectOfStr(t *testing.T) {
	keys := []string{"a", "bb"}
	for _, doc := range []string{
		`{}`, ` { } `, `{"a":"x"}`, `{"bb":"y","a":"x"}`, "{\n  \"a\" : \"x\" ,\n\t\"bb\": \"Pé→1\"\r\n}", `{"a":""}`,
		`{"a":"0123456789abcdefghij","bb":"y"}`, `{"bb":"x"}`,
		``, `{`, `{"a"}`, `{"a":}`, `{"a":"x",}`, `{"a":"x" "bb":"y"}`, `{"a":"x","a":"y"}`, `{"A":"x"}`, `{"b":"x"}`,
		`{"bbb":"x"}`, `{"a":null}`, `{"a":1}`, `{"a":"x\"y"}`, `{"a":"x"}}`, `{"a":"x"} x`, `[]`,
		"{\"a\":\"x\x01\"}", "{\"a\":\"\xff\"}", `{"a":"x"`, `{"a":"x`, `{"a`, "{\x0b\"a\":\"x\"}",
	} {
		c := New(doc)
		var vals [2]Span
		ok := c.Fields(NewKeys(keys...), vals[:], nil) && c.End()
		want, _, wantOK := viaObject(doc, keys, 2)
		if ok != wantOK || ok && (vals[0].In(doc) != want[0] || vals[1].In(doc) != want[1]) {
			t.Errorf("Fields(%q) = %q %q, %v; Object and Str read %q, %v", doc, vals[0].In(doc), vals[1].In(doc), ok, want, wantOK)
		}
	}
}

// TestFieldsIsObjectOfStrAndNumber: with number keys after the string
// keys, Fields reads what Object with a Str or a Number per field reads,
// to the same bits, and declines what that declines.
func TestFieldsIsObjectOfStrAndNumber(t *testing.T) {
	keys := []string{"node", "value", "w"}
	for _, doc := range []string{
		`{}`, `{"value":2.05}`, `{"node":"P2","value":2.05}`, `{"w":-0,"value":1e-7,"node":"P2"}`, "{ \"value\" :\n 1.5E+21 , \"w\":0.1}",
		`{"value":123456789012345}`, `{"value":1234567890123456}`, `{"value":0.30000000000000004}`, `{"value":4e-400}`,
		`{"value":1e999}`, `{"value":01}`, `{"value":1.}`, `{"value":.5}`, `{"value":+1}`, `{"value":-}`, `{"value":1e}`,
		`{"value":"2"}`, `{"value":null}`, `{"node":2}`, `{"value":2,"value":3}`, `{"Value":2}`, `{"value":2,}`, `{"value":2`, `{"value":`,
	} {
		c := New(doc)
		var names [1]Span
		var nums [2]float64
		ok := c.Fields(NewKeys(keys...), names[:], nums[:]) && c.End()
		want, wantNums, wantOK := viaObject(doc, keys, 1)
		if ok != wantOK || ok && (names[0].In(doc) != want[0] ||
			math.Float64bits(nums[0]) != math.Float64bits(wantNums[0]) || math.Float64bits(nums[1]) != math.Float64bits(wantNums[1])) {
			t.Errorf("Fields(%q) = %q %v, %v; Object, Str and Number read %q %v, %v", doc, names[0].In(doc), nums, ok, want, wantNums, wantOK)
		}
	}
}

// TestKeysAt: a key set matches by word what a compare of each key's
// text and closing quote matches, at every offset of a document — eight
// bytes from its end or nearer, with keys of up to seven bytes and
// longer, and with a key that is a prefix of another.
func TestKeysAt(t *testing.T) {
	for _, names := range [][]string{
		{"a", "bb"}, {"node", "from", "to", "value"}, {"observations", "value", "val"}, {"abcdefg", "abcdefgh", "x"},
	} {
		ks := NewKeys(names...)
		for _, doc := range []string{
			`"a":"bb":"b":"bbb":"A":"`, `{"node":"P2","from":"to","to":"P3","value":2,"val":1,"values":3}`,
			`"observations":"observation":"abcdefgh":"abcdefg":"abcdefgi":"x"`, `"x"`, `to"`, `val`, `"`, ``,
		} {
			for i := range len(doc) + 1 {
				wantK, wantEnd := -1, 0
				for k, key := range names {
					if end := i + len(key); end < len(doc) && doc[end] == '"' && doc[i:end] == key {
						wantK, wantEnd = k, end
						break
					}
				}
				if k, end := ks.at(doc, i); k != wantK || k >= 0 && end != wantEnd {
					t.Errorf("keys %q at %d of %q: %d, %d; want %d, %d", names, i, doc, k, end, wantK, wantEnd)
				}
			}
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

// numberEdges sit on both sides of Number's fast path and its limits:
// 15 and 16 significant digits, powers of ten of 22 and 23 (an
// exponent, or that many fraction digits), zeros, leading zeros of a
// fraction, and the float64 range's ends. The rows after the first
// three are numbers one step past a limit where one IEEE operation
// would round differently from ParseFloat: a fast path one digit or
// one power wider than the exact one fails on them.
var numberEdges = []string{
	`0`, `-0`, `-0.0`, `0e5`, `-0e-400`, `1`, `-1`, `0.1`, `0.3`, `2.05`, `1.5`, `1.875`, `1e-7`, `1.5e+21`, `2E0`, `2.5e-3`,
	`123456789012345`, `1234567890123456`, `999999999999999`, `9007199254740993`, `-9007199254740993`,
	`0.123456789012345`, `0.1234567890123456`, `1.00000000000000`, `1.000000000000000`, `0.33333333333333331`,
	`1e22`, `1e23`, `1e-22`, `1e-23`, `999999999999999e22`, `123456789012345e-22`, `123456789012345e7`,
	`0.0000000000000000000001`, `0.00000000000000000000001`, `1.0000000000000000000001`, `1234567.000000000000001`,
	`0.000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000000001`,
	`100000000000000000000000`, `1e0000000000000000000000022`, `1e99999999999999999999`, `1e-99999999999999999999`,
	`1.7976931348623157e308`, `1.7976931348623159e308`, `5e-324`, `2e-324`, `4e-400`, `1e999`,
	`9732574806.491999`, `936804166728.1225`, `-9977025308873.345`, `9273498668592937e-2`,
	`0.00000000000000000841491`, `841491e-23`, `-238063e-23`, `900847e23`, `975142E+23`,
}

// isNumber reports whether s is one number in the JSON grammar.
func isNumber(s string) bool {
	return s != "" && (s[0] == '-' || '0' <= s[0] && s[0] <= '9') && '0' <= s[len(s)-1] && s[len(s)-1] <= '9' && json.Valid([]byte(s))
}

// FuzzNumber holds Number to strconv.ParseFloat, the call encoding/json
// makes: on a document that is one number in the JSON grammar it reads
// all of it, with ParseFloat's bits where ParseFloat succeeds and
// declining it where ParseFloat fails; on any other document, what it
// reads is such a number, with the same bits.
func FuzzNumber(f *testing.F) {
	for _, s := range numberEdges {
		f.Add(s)
		f.Add(" " + s + ",")
	}
	f.Fuzz(func(t *testing.T, doc string) {
		text := strings.TrimLeft(doc, " \t\r\n")
		c := New(doc)
		got, ok := c.Number()
		if isNumber(text) {
			want, err := strconv.ParseFloat(text, 64)
			if ok != (err == nil) || ok && (c.Pos() != len(doc) || math.Float64bits(got) != math.Float64bits(want)) {
				t.Fatalf("Number(%q) = %v (%#x), %v at %d; ParseFloat: %v (%#x), %v",
					doc, got, math.Float64bits(got), ok, c.Pos(), want, math.Float64bits(want), err)
			}
		}
		if !ok {
			return
		}
		read := doc[len(doc)-len(text) : c.Pos()]
		want, err := strconv.ParseFloat(read, 64)
		if !isNumber(read) || err != nil || math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("Number(%q) read %q as %v (%#x); ParseFloat: %v (%#x), %v", doc, read, got, math.Float64bits(got), want, math.Float64bits(want), err)
		}
	})
}
