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
// spelled exactly and at most once (Object; Fields when every value is
// a string or a number).
package jsonscan

import (
	"math/bits"
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

func (c *Cursor) space() { c.i = pass(c.s, c.i) }

// pass returns the end of the whitespace that starts at s[i]. After
// each whitespace byte it passes the run of blanks that follows eight
// bytes at a time: an indenting encoder's newline and indent are a
// couple of steps, not one per byte.
func pass(s string, i int) int {
	for i < len(s) && IsSpace(s[i]) {
		i++
		for ; i+8 <= len(s); i += 8 {
			if x := load(s[i:]) ^ 0x2020202020202020; x != 0 { // a byte that is not a blank
				i += bits.TrailingZeros64(x) / 8
				break
			}
		}
	}
	return i
}

// Pos returns the offset of the next unread byte.
func (c *Cursor) Pos() int { return c.i }

// End reports whether nothing but whitespace is left.
func (c *Cursor) End() bool {
	c.space()
	return c.i == len(c.s)
}

// Token consumes whitespace, then ch if it is next.
func (c *Cursor) Token(ch byte) bool { return c.take(ch) || c.spaceThen(ch) }

// take consumes ch if it is the very next byte. It inlines, so the
// methods below spell Token as take || spaceThen: in the compact
// spelling every token is next, and one call per token is most of the
// cost of a scan.
func (c *Cursor) take(ch byte) bool {
	if c.i < len(c.s) && c.s[c.i] == ch {
		c.i++
		return true
	}
	return false
}

func (c *Cursor) spaceThen(ch byte) bool {
	c.space()
	return c.take(ch)
}

// Key consumes the object key name and its colon.
func (c *Cursor) Key(name string) bool {
	k, ok := c.Str()
	return ok && k == name && c.Token(':')
}

// Str consumes a string that stands for itself: no escape, no control
// byte, valid UTF-8 (encoding/json replaces what is not).
func (c *Cursor) Str() (string, bool) {
	if !c.take('"') && !c.spaceThen('"') {
		return "", false
	}
	start := c.i
	end, ok := strEnd(c.s, start)
	if !ok {
		return "", false
	}
	c.i = end + 1
	return c.s[start:end], true
}

// A Span is where a string's text lies in the document: doc[Lo:Hi]. A
// caller that keeps spans rather than strings holds no pointer into
// the document.
type Span struct{ Lo, Hi int }

// In returns the text of sp in doc.
func (sp Span) In(doc string) string { return doc[sp.Lo:sp.Hi] }

// strEnd returns the offset of the quote that closes the string whose
// text starts at s[start], and whether the text stands for itself.
func strEnd(s string, start int) (int, bool) {
	i := start
	for ; i+8 <= len(s); i += 8 { // eight ASCII bytes that stand for themselves at a time
		if m := special(load(s[i:])); m != 0 {
			i += bits.TrailingZeros64(m) / 8
			break
		}
	}
	var union byte // of the string's bytes from i on: under RuneSelf, it is ASCII
	for ; i < len(s); i++ {
		b := s[i]
		if !plain[b] {
			return i, b == '"' && (union < utf8.RuneSelf || utf8.ValidString(s[start:i]))
		}
		union |= b
	}
	return i, false
}

// load reads s's first eight bytes as a little-endian word.
func load(s string) uint64 {
	_ = s[7]
	return uint64(s[0]) | uint64(s[1])<<8 | uint64(s[2])<<16 | uint64(s[3])<<24 |
		uint64(s[4])<<32 | uint64(s[5])<<40 | uint64(s[6])<<48 | uint64(s[7])<<56
}

// special sets the high bit of each byte of x that is a quote, a
// backslash, a control byte or not ASCII. A borrow can set it above
// such a byte as well, never below one, so the lowest bit set is exact.
func special(x uint64) uint64 {
	const ones, high = 0x0101010101010101, 0x8080808080808080
	q, b := x^'"'*ones, x^'\\'*ones
	return ((q-ones)&^q | (b-ones)&^b | (x-' '*ones)&^x | x) & high
}

// plain marks the bytes that stand for themselves inside a string:
// all but the quote, the backslash and the control bytes.
var plain = func() (t [256]bool) {
	for b := 0x20; b < len(t); b++ {
		t[b] = b != '"' && b != '\\'
	}
	return t
}()

// Number consumes a JSON number and returns the float64 nearest to it,
// the bits encoding/json's strconv.ParseFloat call returns
// (FuzzNumber).
func (c *Cursor) Number() (float64, bool) {
	c.space()
	v, end, ok := number(c.s, c.i)
	c.i = end
	return v, ok
}

// number reads the JSON number that starts at s[i], returning its value
// and its end. Most telemetry values have few digits and a short
// fraction, and those take a fast path (Clinger, "How to read floating
// point numbers accurately", 1990): with at most 15 significant digits
// the digits are an integer m < 10^15 < 2^53, exact as a float64; so is
// 10^k for k <= 22; and one IEEE multiply or divide of two exact
// operands is correctly rounded, so m·10^k and m/10^k are the nearest
// float64 to the decimal, the bits strconv.ParseFloat returns too.
// Every other number goes to strconv.ParseFloat.
func number(s string, i int) (v float64, end int, ok bool) {
	start := i
	neg := i < len(s) && s[i] == '-'
	if neg {
		i++
	}
	var m uint64    // the significand's digits, while there are at most 15
	nd, exp := 0, 0 // significant digits; the power of ten m is scaled by
	if i < len(s) && s[i] == '0' {
		i++
	} else {
		from := i
		i, m, nd = mantissa(s, i, m, nd)
		if i == from {
			return 0, i, false
		}
	}
	if i < len(s) && s[i] == '.' {
		from := i + 1
		i, m, nd = mantissa(s, from, m, nd)
		if i == from {
			return 0, i, false
		}
		exp = from - i
	}
	if i < len(s) && (s[i] == 'e' || s[i] == 'E') {
		i++
		eneg := i < len(s) && s[i] == '-'
		if i < len(s) && (s[i] == '+' || s[i] == '-') {
			i++
		}
		from, e := i, 0
		for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
			if e < 1<<20 { // far past any float64's power, and no overflow
				e = e*10 + int(s[i]-'0')
			}
		}
		if i == from {
			return 0, i, false
		}
		if eneg {
			e = -e
		}
		exp += e
	}
	if nd <= 15 && -22 <= exp && exp <= 22 {
		v = float64(m)
		if exp < 0 {
			v /= pow10[-exp]
		} else {
			v *= pow10[exp]
		}
		if neg {
			v = -v
		}
		return v, i, true
	}
	v, err := strconv.ParseFloat(s[start:i], 64)
	return v, i, err == nil
}

// mantissa reads the run of digits that starts at s[i] into m, which
// holds nd significant digits so far (leading zeros are not
// significant), and returns the run's end, m and nd. Past 15 digits m
// stops growing: the fast path is off anyway.
func mantissa(s string, i int, m uint64, nd int) (int, uint64, int) {
	for ; i < len(s) && '0' <= s[i] && s[i] <= '9'; i++ {
		if m != 0 || s[i] != '0' {
			if nd++; nd <= 15 {
				m = m*10 + uint64(s[i]-'0')
			}
		}
	}
	return i, m, nd
}

// pow10 holds the powers of ten a float64 represents exactly.
var pow10 = [...]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10,
	1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19, 1e20, 1e21, 1e22}

// Array consumes an array, calling elem with the cursor at each
// element in turn; elem consumes the element.
func (c *Cursor) Array(elem func() bool) bool {
	if !c.take('[') && !c.spaceThen('[') {
		return false
	}
	if c.take(']') || c.spaceThen(']') {
		return true
	}
	for {
		if !elem() {
			return false
		}
		if c.take(']') || c.spaceThen(']') {
			return true
		}
		if !c.take(',') && !c.spaceThen(',') {
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
	if !c.take('{') && !c.spaceThen('{') {
		return false
	}
	if c.take('}') || c.spaceThen('}') {
		return true
	}
	var seen uint
	for {
		k, ok := c.Str()
		if !ok || !c.take(':') && !c.spaceThen(':') {
			return false
		}
		bit, ok := field(k)
		if !ok || bit == 0 || seen&bit != 0 {
			return false
		}
		seen |= bit
		if c.take('}') || c.spaceThen('}') {
			return true
		}
		if !c.take(',') && !c.spaceThen(',') {
			return false
		}
	}
}

// Fields consumes an object whose keys are among keys, spelled exactly
// and at most once, in one call and without a callback per key: what
// Object reads with a Str or a Number for every field. The first
// len(spans) keys take strings that stand for themselves, and spans[k]
// is set to the span of key k's value; the keys after them take JSON
// numbers, and nums[k-len(spans)] is set to key k's value. The slots
// of keys the object does not hold are left alone.
func (c *Cursor) Fields(keys *Keys, spans []Span, nums []float64) bool {
	s, i := c.s, c.i
	space := func() {
		if i < len(s) && s[i] <= ' ' {
			i = pass(s, i)
		}
	}
	// next passes whitespace from i and reports whether ch is there.
	next := func(ch byte) bool {
		space()
		return i < len(s) && s[i] == ch
	}
	if !next('{') {
		return false
	}
	i++
	if next('}') {
		c.i = i + 1
		return true
	}
	var seen uint64
	for {
		if !next('"') {
			return false
		}
		k, end := keys.at(s, i+1)
		if k < 0 || seen&(1<<k) != 0 {
			return false
		}
		seen |= 1 << k
		if i = end + 1; !next(':') {
			return false
		}
		i++
		if k < len(spans) {
			if !next('"') {
				return false
			}
			end, ok := strEnd(s, i+1)
			if !ok {
				return false
			}
			spans[k] = Span{i + 1, end}
			i = end + 1
		} else {
			space()
			var ok bool
			if nums[k-len(spans)], i, ok = number(s, i); !ok {
				return false
			}
		}
		if next('}') {
			c.i = i + 1
			return true
		}
		if !next(',') {
			return false
		}
		i++
	}
}

// Keys is the key set of the objects Fields reads, in the order Fields
// numbers them. A key is matched in place: the eight bytes at a
// string's text, masked to a key's length and its closing quote, are
// compared with the key's own, one word per key instead of one string
// compare.
type Keys struct {
	names        []string
	words, masks []uint64 // a key of under eight bytes and its quote as load reads them; mask 0 past that
	long         bool     // some key is eight bytes or longer
}

// NewKeys returns the key set names. Keys stand for themselves (Str
// would read each as itself), and there are at most 64.
func NewKeys(names ...string) *Keys {
	ks := &Keys{names: names, words: make([]uint64, len(names)), masks: make([]uint64, len(names))}
	for k, name := range names {
		if len(name) >= 8 {
			ks.long = true
			continue
		}
		var b [8]byte
		copy(b[:], name+`"`)
		ks.words[k] = load(string(b[:]))
		ks.masks[k] = 1<<(8*(len(name)+1)) - 1
	}
	return ks
}

// at returns the index of the key whose text, then its closing quote,
// start at s[i], and the offset of that quote; -1 if there is none.
// Keys stand for themselves, so a string whose bytes are a key's is
// that key.
func (ks *Keys) at(s string, i int) (k, end int) {
	if i+8 <= len(s) {
		w := load(s[i:])
		for k, m := range ks.masks {
			if m != 0 && w&m == ks.words[k] {
				return k, i + len(ks.names[k])
			}
		}
		if !ks.long {
			return -1, 0
		}
	}
	for k, key := range ks.names {
		if end = i + len(key); end < len(s) && s[end] == '"' && s[i:end] == key {
			return k, end
		}
	}
	return -1, 0
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
		if !counted[s[i]] {
			continue
		}
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

// counted marks the bytes Skip looks at: brackets, quotes, backslashes.
var counted = [256]bool{'{': true, '[': true, '}': true, ']': true, '"': true, '\\': true}
