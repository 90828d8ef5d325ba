// Package jsonscan is the lexical half of the repository's one-pass
// request readers: the telemetry scanner and the /v1/solve envelope
// scanner of pkg/steady/server, and the platform scanner of
// pkg/steady/platform. Each of them reads the plain spelling of one
// document — what json.Marshal, an indenting encoder and a hand-written
// curl body produce — in front of an encoding/json decoder that reads
// every spelling, and each is a second reader of that decoder's
// language, never a second definition of it: when a Cursor method
// reports false the caller declines the document without an opinion,
// and the decoder behind it owns the verdict and the error text.
//
// What "plain" means is defined here and nowhere else: JSON whitespace
// between tokens, strings that stand for themselves (Str), numbers in
// the JSON grammar (Number), objects whose keys come from a known set,
// spelled exactly and at most once (Object).
package jsonscan

import (
	"strconv"
	"unicode/utf8"
)

// Cursor is a position in a document. Every method either consumes
// what it names and reports true, or reports false with the cursor
// wherever it stopped — the caller gives up on the first false.
type Cursor struct {
	s string
	i int
}

// New returns a cursor at the start of doc. The strings the cursor
// hands out are substrings of doc: a caller that keeps one past the
// request clones it, or it pins the whole document.
func New(doc string) *Cursor { return &Cursor{s: doc} }

// IsSpace reports whether c is JSON whitespace.
func IsSpace(c byte) bool {
	const spaces = 1<<' ' | 1<<'\n' | 1<<'\t' | 1<<'\r'
	return c <= ' ' && spaces>>c&1 != 0
}

func (c *Cursor) space() {
	i := c.i
	for i < len(c.s) && IsSpace(c.s[i]) {
		i++
	}
	c.i = i
}

// Pos returns the offset of the next unread byte.
func (c *Cursor) Pos() int { return c.i }

// End reports whether nothing but whitespace is left.
func (c *Cursor) End() bool {
	c.space()
	return c.i == len(c.s)
}

// Token consumes whitespace, then ch if it is next.
func (c *Cursor) Token(ch byte) bool {
	c.space()
	if c.i < len(c.s) && c.s[c.i] == ch {
		c.i++
		return true
	}
	return false
}

// Key consumes the object key name and its colon.
func (c *Cursor) Key(name string) bool {
	k, ok := c.Str()
	return ok && k == name && c.Token(':')
}

// Str consumes a string that stands for itself: no escape, no control
// byte, valid UTF-8 (encoding/json replaces what is not).
func (c *Cursor) Str() (string, bool) {
	if !c.Token('"') {
		return "", false
	}
	s, start := c.s, c.i
	var union byte // of the string's bytes: under RuneSelf, it is ASCII
	for i := start; i < len(s); i++ {
		switch b := s[i]; {
		case b == '"':
			c.i = i + 1
			v := s[start:i]
			return v, union < utf8.RuneSelf || utf8.ValidString(v)
		case b == '\\' || b < 0x20:
			return "", false
		default:
			union |= b
		}
	}
	return "", false
}

// Number consumes a JSON number and parses it with the call
// encoding/json itself makes, so the bits are the same.
func (c *Cursor) Number() (float64, bool) {
	c.space()
	s, start := c.s, c.i
	i := start
	if i < len(s) && s[i] == '-' {
		i++
	}
	if i < len(s) && s[i] == '0' {
		i++
	} else if i = digits(s, i); i < 0 {
		return 0, false
	}
	if i < len(s) && s[i] == '.' {
		if i = digits(s, i+1); i < 0 {
			return 0, false
		}
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		if i = digits(s, i); i < 0 {
			return 0, false
		}
	}
	v, err := strconv.ParseFloat(s[start:i], 64)
	c.i = i
	return v, err == nil
}

// digits returns the end of the run of decimal digits starting at
// s[i], -1 if there is none.
func digits(s string, i int) int {
	from := i
	for i < len(s) && '0' <= s[i] && s[i] <= '9' {
		i++
	}
	if i == from {
		return -1
	}
	return i
}

// Array consumes an array, calling elem with the cursor at each
// element in turn; elem consumes the element.
func (c *Cursor) Array(elem func() bool) bool {
	if !c.Token('[') {
		return false
	}
	if c.Token(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if c.Token(']') {
			return true
		}
		if !c.Token(',') {
			return false
		}
	}
}

// Object consumes an object, calling field with each key and the
// cursor at the key's value. field consumes the value and returns the
// key's bit — one per key it knows, 0 for a key it does not — so that
// keys are spelled exactly (encoding/json folds case) and present at
// most once (the last one wins there); either way out of that, and any
// value field does not take, ends the scan.
func (c *Cursor) Object(field func(key string) (bit uint, ok bool)) bool {
	if !c.Token('{') {
		return false
	}
	if c.Token('}') {
		return true
	}
	var seen uint
	for {
		k, ok := c.Str()
		if !ok || !c.Token(':') {
			return false
		}
		bit, ok := field(k)
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if c.Token('}') {
			return true
		}
		if !c.Token(',') {
			return false
		}
	}
}

// maxSkipDepth bounds the nesting Skip follows. It sits far under
// encoding/json's own limit (10 000) on purpose: a value Skip passes
// over can be nested inside a few more levels and still be within it,
// so a decoder that reads the value alone and one that reads the
// document around it cannot disagree about depth.
const maxSkipDepth = 64

// Skip consumes one object without reading it — by counting brackets
// outside strings until the opening brace is closed — and returns its
// text. It reports false on a backslash (a string boundary would need
// the escape grammar), past maxSkipDepth, and at the end of the
// document. It checks nothing else: the text is a complete JSON value
// only if a reader of that value accepts all of it, and then it is
// exactly what a json.RawMessage in this position would have held —
// on well-formed JSON without escapes, this count and the grammar put
// the end of the value in the same place.
func (c *Cursor) Skip() (string, bool) {
	c.space()
	s, start := c.s, c.i
	if start == len(s) || s[start] != '{' {
		return "", false
	}
	depth, inString := 0, false
	for i := start; i < len(s); i++ {
		switch s[i] {
		case '\\':
			return "", false
		case '"':
			inString = !inString
		case '{', '[':
			if !inString {
				if depth++; depth > maxSkipDepth {
					return "", false
				}
			}
		case '}', ']':
			if !inString {
				if depth--; depth == 0 {
					c.i = i + 1
					return s[start:c.i], true
				}
			}
		}
	}
	return "", false
}
