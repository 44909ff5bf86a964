package telemetry

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"unicode"
	"unicode/utf16"
	"unicode/utf8"
)

// maxNesting is encoding/json's limit on nested arrays and objects; a
// deeper line is malformed there, so it is here too.
const maxNesting = 10000

// Member types a lineDecoder keeps.
const (
	jsonOther  byte = iota // object, array, bool or null: present, never read
	jsonNumber             // num holds the value
	jsonString             // tok holds the token, quotes included
)

// member is one top-level key of a line and its value.
type member struct {
	key   []byte // unescaped
	typ   byte
	plain bool // a string token that is its own value: ASCII, no escapes
	num   float64
	tok   []byte
}

// lineDecoder reads one NDJSON line as encoding/json reads it into a
// map[string]any: the same lines are malformed (bad syntax, a top level
// that is neither an object nor null, a number no float64 holds, nesting
// past maxNesting), a later duplicate key shadows an earlier one, and
// strings unescape to the same bytes. It keeps only the line's
// top-level members, in storage reused line to line, and interns Src
// values, so decoding a log allocates little beyond its events.
type lineDecoder struct {
	b       []byte
	i       int
	members []member
	fixed   [nFixed]int // 1 + the index of each fixed key's last member
	keys    []byte      // unescaped keys that needed it
	scratch []byte      // the string value last unescaped
	srcs    map[string]string
}

// The keys every line is asked for, found without a search.
const (
	keyT = iota
	keyComp
	keyKind
	keySrc
	keyFlow
	keySeq
	nFixed
)

func fixedKey[K string | []byte](key K) int {
	switch string(key) {
	case "t":
		return keyT
	case "comp":
		return keyComp
	case "kind":
		return keyKind
	case "src":
		return keySrc
	case "flow":
		return keyFlow
	case "seq":
		return keySeq
	}
	return -1
}

// scan parses line into d.members, or reports why it is malformed.
func (d *lineDecoder) scan(line []byte) error {
	d.b, d.i, d.members, d.keys, d.fixed = line, 0, d.members[:0], d.keys[:0], [nFixed]int{}
	d.ws()
	top := d.peek()
	if _, err := d.value(0, true); err != nil {
		return err
	}
	d.ws()
	if d.i < len(d.b) {
		return d.fail("data after the top-level value")
	}
	if top != '{' && top != 'n' { // 'n' parsed, so it was null
		return errors.New("not a JSON object")
	}
	return nil
}

// find returns the line's last member named key, or nil.
func (d *lineDecoder) find(key string) *member {
	if k := fixedKey(key); k >= 0 {
		if i := d.fixed[k]; i > 0 {
			return &d.members[i-1]
		}
		return nil
	}
	for i := len(d.members) - 1; i >= 0; i-- {
		if string(d.members[i].key) == key {
			return &d.members[i]
		}
	}
	return nil
}

// num is member key as a number: 0 if absent or not a number.
func (d *lineDecoder) num(key string) (float64, bool) {
	if m := d.find(key); m != nil && m.typ == jsonNumber {
		return m.num, true
	}
	return 0, false
}

// str is member key's string value, unescaped, valid until the next
// call; nil if absent or not a string.
func (d *lineDecoder) str(key string) []byte {
	m := d.find(key)
	if m == nil || m.typ != jsonString {
		return nil
	}
	if m.plain {
		return m.tok[1 : len(m.tok)-1]
	}
	d.scratch = unquote(d.scratch[:0], m.tok)
	return d.scratch
}

// intern returns b as a string, one string per distinct value.
func (d *lineDecoder) intern(b []byte) string {
	if s, ok := d.srcs[string(b)]; ok {
		return s
	}
	if d.srcs == nil {
		d.srcs = make(map[string]string)
	}
	s := string(b)
	d.srcs[s] = s
	return s
}

func (d *lineDecoder) fail(what string) error {
	return fmt.Errorf("invalid JSON at byte %d: %s", d.i, what)
}

func (d *lineDecoder) peek() byte {
	if d.i < len(d.b) {
		return d.b[d.i]
	}
	return 0
}

func (d *lineDecoder) ws() {
	for d.i < len(d.b) {
		switch d.b[d.i] {
		case ' ', '\t', '\n', '\r':
			d.i++
		default:
			return
		}
	}
}

// value parses one JSON value at depth containers deep. With keep it is
// the top level: an object's members are recorded.
func (d *lineDecoder) value(depth int, keep bool) (m member, err error) {
	switch c := d.peek(); {
	case c == '{':
		return m, d.object(depth+1, keep)
	case c == '[':
		return m, d.array(depth + 1)
	case c == '"':
		m.typ = jsonString
		m.plain, err = d.string()
		return m, err
	case c == '-' || '0' <= c && c <= '9':
		m.typ = jsonNumber
		m.num, err = d.number()
		return m, err
	case c == 't':
		return m, d.literal("true")
	case c == 'f':
		return m, d.literal("false")
	case c == 'n':
		return m, d.literal("null")
	case c == 0 && d.i == len(d.b):
		return m, d.fail("unexpected end of line")
	default:
		return m, d.fail(fmt.Sprintf("unexpected %q", c))
	}
}

func (d *lineDecoder) literal(word string) error {
	if len(d.b)-d.i < len(word) || string(d.b[d.i:d.i+len(word)]) != word {
		return d.fail("bad literal")
	}
	d.i += len(word)
	return nil
}

func (d *lineDecoder) object(depth int, keep bool) error {
	if depth > maxNesting {
		return d.fail("exceeded max depth")
	}
	d.i++ // '{'
	d.ws()
	if d.peek() == '}' {
		d.i++
		return nil
	}
	for {
		d.ws()
		if d.peek() != '"' {
			return d.fail("expected a key")
		}
		start := d.i
		plain, err := d.string()
		if err != nil {
			return err
		}
		key := d.b[start+1 : d.i-1]
		d.ws()
		if d.peek() != ':' {
			return d.fail("expected ':'")
		}
		d.i++
		d.ws()
		vstart := d.i
		m, err := d.value(depth, false)
		if err != nil {
			return err
		}
		if keep {
			if !plain {
				n := len(d.keys)
				d.keys = unquote(d.keys, d.b[start:start+len(key)+2])
				key = d.keys[n:]
			}
			m.key, m.tok = key, d.b[vstart:d.i]
			d.members = append(d.members, m)
			if k := fixedKey(key); k >= 0 {
				d.fixed[k] = len(d.members)
			}
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.i++
		case '}':
			d.i++
			return nil
		default:
			return d.fail("expected ',' or '}'")
		}
	}
}

func (d *lineDecoder) array(depth int) error {
	if depth > maxNesting {
		return d.fail("exceeded max depth")
	}
	d.i++ // '['
	d.ws()
	if d.peek() == ']' {
		d.i++
		return nil
	}
	for {
		d.ws()
		if _, err := d.value(depth, false); err != nil {
			return err
		}
		d.ws()
		switch d.peek() {
		case ',':
			d.i++
		case ']':
			d.i++
			return nil
		default:
			return d.fail("expected ',' or ']'")
		}
	}
}

// string checks the string token at d.i and moves past it. It reports
// whether the token is plain: ASCII without escapes, so its contents
// are its value.
func (d *lineDecoder) string() (plain bool, err error) {
	d.i++ // '"'
	plain = true
	for d.i < len(d.b) {
		c := d.b[d.i]
		if c >= 0x20 && c < utf8.RuneSelf && c != '"' && c != '\\' {
			d.i++
			continue
		}
		switch {
		case c == '"':
			d.i++
			return plain, nil
		case c < 0x20:
			return false, d.fail("control character in string")
		case c == '\\':
			plain = false
			if d.i+1 >= len(d.b) {
				return false, d.fail("unexpected end of line")
			}
			switch d.b[d.i+1] {
			case '"', '\\', '/', 'b', 'f', 'n', 'r', 't':
				d.i += 2
			case 'u':
				if hex4(d.b[d.i+2:]) < 0 {
					return false, d.fail("bad \\u escape")
				}
				d.i += 6
			default:
				return false, d.fail("bad escape")
			}
		default: // a byte of a multi-byte rune, or of invalid UTF-8
			plain = false
			d.i++
		}
	}
	return false, d.fail("unterminated string")
}

// number checks the number token at d.i against JSON's grammar, moves
// past it and returns its value; like encoding/json it rejects one no
// float64 holds. A plain decimal whose digits make an integer below
// 2^53 with at most 22 of them after the point (every timestamp and
// count NDJSONSink writes) is worked out here, as strconv's own exact
// path would: that integer divided by an exact power of ten rounds
// once, to the float64 ParseFloat returns.
func (d *lineDecoder) number() (float64, error) {
	start := d.i
	var mant uint64
	exact := true
	digits := func() int {
		n := 0
		for ; d.i < len(d.b); d.i, n = d.i+1, n+1 {
			c := d.b[d.i] - '0'
			if c > 9 {
				break
			}
			if mant < (1<<53)/10 {
				mant = mant*10 + uint64(c)
			} else {
				exact = false
			}
		}
		return n
	}
	neg := d.peek() == '-'
	if neg {
		d.i++
	}
	switch c := d.peek(); {
	case c == '0':
		d.i++
	case '1' <= c && c <= '9':
		digits()
	default:
		return 0, d.fail("bad number")
	}
	frac := 0
	if d.peek() == '.' {
		d.i++
		if frac = digits(); frac == 0 {
			return 0, d.fail("bad number")
		}
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		exact = false
		d.i++
		if c := d.peek(); c == '+' || c == '-' {
			d.i++
		}
		if digits() == 0 {
			return 0, d.fail("bad number")
		}
	}
	if exact && frac <= 22 {
		f := float64(mant) / math.Pow10(frac)
		if neg {
			f = -f
		}
		return f, nil
	}
	f, err := strconv.ParseFloat(string(d.b[start:d.i]), 64)
	if err != nil {
		return 0, fmt.Errorf("number %s: %w", d.b[start:d.i], err)
	}
	return f, nil
}

// hex4 reads four hex digits, or returns -1.
func hex4(b []byte) rune {
	if len(b) < 4 {
		return -1
	}
	var r rune
	for _, c := range b[:4] {
		switch {
		case '0' <= c && c <= '9':
			c -= '0'
		case 'a' <= c && c <= 'f':
			c = c - 'a' + 10
		case 'A' <= c && c <= 'F':
			c = c - 'A' + 10
		default:
			return -1
		}
		r = r<<4 | rune(c)
	}
	return r
}

// needsUnquote reports whether a checked string's contents (quotes
// excluded) differ from their unescaped value: an escape, or a byte of
// invalid UTF-8.
func needsUnquote(s []byte) bool {
	ascii := true
	for _, c := range s {
		if c == '\\' {
			return true
		}
		if c >= utf8.RuneSelf {
			ascii = false
		}
	}
	return !ascii && !utf8.Valid(s)
}

// unquote appends the value of a checked string token to dst, as
// encoding/json unescapes it: invalid UTF-8 and unpaired surrogates
// become U+FFFD.
func unquote(dst, tok []byte) []byte {
	s := tok[1 : len(tok)-1]
	if !needsUnquote(s) {
		return append(dst, s...)
	}
	for i := 0; i < len(s); {
		c := s[i]
		switch {
		case c == '\\':
			switch e := s[i+1]; e {
			case 'b':
				dst = append(dst, '\b')
			case 'f':
				dst = append(dst, '\f')
			case 'n':
				dst = append(dst, '\n')
			case 'r':
				dst = append(dst, '\r')
			case 't':
				dst = append(dst, '\t')
			case 'u':
				r := hex4(s[i+2:])
				i += 6
				if utf16.IsSurrogate(r) {
					var r2 rune = -1
					if i+1 < len(s) && s[i] == '\\' && s[i+1] == 'u' {
						r2 = hex4(s[i+2:])
					}
					if dec := utf16.DecodeRune(r, r2); dec != unicode.ReplacementChar {
						r, i = dec, i+6
					} else {
						r = unicode.ReplacementChar
					}
				}
				dst = utf8.AppendRune(dst, r)
				continue
			default: // '"', '\\', '/'
				dst = append(dst, e)
			}
			i += 2
		case c < utf8.RuneSelf:
			dst = append(dst, c)
			i++
		default:
			r, size := utf8.DecodeRune(s[i:])
			dst = utf8.AppendRune(dst, r)
			i += size
		}
	}
	return dst
}
