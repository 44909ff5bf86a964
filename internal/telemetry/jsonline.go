package telemetry

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"strconv"

	"rrtcp/internal/sim"
)

// lineDecoder reads NDJSON lines into events. A line in the one shape
// NDJSONSink.Emit writes takes a short path that reads it in place;
// every other line goes through encoding/json into a map[string]any, so
// what is malformed, unknown or skipped, and the text saying so, is
// encoding/json's own. The short path interns Src values, so decoding a
// log allocates little beyond its events.
type lineDecoder struct {
	srcs map[string]string
}

// decode reads one trimmed line. err says why a line is skipped;
// unknown names the comp/kind of a well-formed line outside this
// build's vocabulary; otherwise ev is the line's event.
func (d *lineDecoder) decode(line []byte) (ev Event, unknown string, err error) {
	if ev, ok := d.short(line); ok {
		return ev, "", nil
	}
	var raw map[string]any
	if err := json.Unmarshal(line, &raw); err != nil {
		return ev, "", err
	}
	num := func(key string) float64 { f, _ := raw[key].(float64); return f }
	compName, _ := raw["comp"].(string)
	kindName, _ := raw["kind"].(string)
	ev = Event{
		At:   sim.Time(math.Round(num("t") * 1e9)),
		Comp: ParseComponent(compName),
		Kind: ParseKind(kindName),
		Flow: NoFlow,
		Seq:  int64(num("seq")),
	}
	ev.Src, _ = raw["src"].(string)
	flow, hasFlow := raw["flow"].(float64)
	switch {
	case kindName == "":
		return ev, "", errors.New(`missing "kind"`)
	case hasFlow && (flow < math.MinInt32 || flow > math.MaxInt32):
		// No writer numbers a flow outside int32, and converting
		// such a number is implementation-defined.
		return ev, "", fmt.Errorf("flow %g out of range", flow)
	case ev.Comp == 0 || ev.Kind == 0:
		return ev, compName + "/" + kindName, nil
	}
	if hasFlow {
		ev.Flow = int32(flow)
	}
	a, b := ev.Kind.attrNames()
	if a != "" {
		ev.A = num(a)
	}
	if b != "" {
		ev.B = num(b)
	}
	return ev, "", nil
}

// short reads a line of the shape NDJSONSink.Emit writes, and reports
// false for any other: `{"t":<num>,"comp":"<name>","kind":"<name>"`,
// then, each optional and in this order, `,"src":"<name>"`,
// `,"flow":<num within int32>`, `,"seq":<num>` and the kind's attribute
// keys, then `}` and nothing after, where a name is printable ASCII
// without escapes and comp and kind are in the vocabulary. No key comes
// twice on such a line, so reading it in order reads it as
// encoding/json does.
func (d *lineDecoder) short(line []byte) (Event, bool) {
	ev := Event{Flow: NoFlow}
	s := shape{b: line}
	s.need(`{"t":`)
	ev.At = sim.Time(math.Round(s.num() * 1e9))
	s.need(`,"comp":`)
	ev.Comp = ParseComponent(string(s.name()))
	s.need(`,"kind":`)
	ev.Kind = ParseKind(string(s.name()))
	if ev.Comp == 0 || ev.Kind == 0 {
		return ev, false
	}
	if s.has(`,"src":`) {
		ev.Src = d.intern(s.name())
	}
	if s.has(`,"flow":`) {
		flow := s.num()
		if flow < math.MinInt32 || flow > math.MaxInt32 {
			return ev, false
		}
		ev.Flow = int32(flow)
	}
	if s.has(`,"seq":`) {
		ev.Seq = int64(s.num())
	}
	if s.has(attrFrag[ev.Kind][0]) {
		ev.A = s.num()
	}
	if s.has(attrFrag[ev.Kind][1]) {
		ev.B = s.num()
	}
	return ev, s.has("}") && len(s.b) == 0
}

// shape consumes a line from the front; bad is set at the first byte
// that departs from the expected shape, and sticks.
type shape struct {
	b   []byte
	bad bool
}

// has consumes lit if the line continues with it.
func (s *shape) has(lit string) bool {
	if s.bad || lit == "" || len(s.b) < len(lit) || string(s.b[:len(lit)]) != lit {
		return false
	}
	s.b = s.b[len(lit):]
	return true
}

// need consumes lit, which the line must continue with.
func (s *shape) need(lit string) {
	if !s.has(lit) {
		s.bad = true
	}
}

// name consumes a string of printable ASCII without escapes and returns
// its contents, or nil.
func (s *shape) name() []byte {
	if !s.bad && len(s.b) > 0 && s.b[0] == '"' {
		for i := 1; i < len(s.b); i++ {
			switch c := s.b[i]; {
			case c == '"':
				v := s.b[1:i]
				s.b = s.b[i+1:]
				return v
			case c < 0x20 || c >= 0x7f || c == '\\':
				s.bad = true
				return nil
			}
		}
	}
	s.bad = true
	return nil
}

// num consumes a JSON number and returns its value.
func (s *shape) num() float64 {
	if s.bad {
		return 0
	}
	f, n, ok := number(s.b)
	if !ok {
		s.bad = true
		return 0
	}
	s.b = s.b[n:]
	return f
}

// number reads the JSON number b starts with and returns its value and
// length; ok is false if b does not start with one, or if no float64
// holds it (encoding/json rejects that number too). A plain decimal
// whose digits make an integer below 2^53 with at most 22 of them after
// the point (every timestamp and count NDJSONSink writes) is worked out
// here, as strconv's own exact path would: that integer divided by an
// exact power of ten rounds once, to the float64 ParseFloat returns.
func number(b []byte) (f float64, n int, ok bool) {
	var mant uint64
	exact := true
	digits := func() int {
		start := n
		for ; n < len(b) && b[n]-'0' <= 9; n++ {
			if mant < (1<<53)/10 {
				mant = mant*10 + uint64(b[n]-'0')
			} else {
				exact = false
			}
		}
		return n - start
	}
	neg := n < len(b) && b[n] == '-'
	if neg {
		n++
	}
	if n < len(b) && b[n] == '0' {
		n++
	} else if digits() == 0 {
		return 0, 0, false
	}
	frac := 0
	if n < len(b) && b[n] == '.' {
		n++
		if frac = digits(); frac == 0 {
			return 0, 0, false
		}
	}
	if n < len(b) && (b[n] == 'e' || b[n] == 'E') {
		exact = false
		n++
		if n < len(b) && (b[n] == '+' || b[n] == '-') {
			n++
		}
		if digits() == 0 {
			return 0, 0, false
		}
	}
	if exact && frac <= 22 {
		f = float64(mant) / math.Pow10(frac)
		if neg {
			f = -f
		}
		return f, n, true
	}
	f, err := strconv.ParseFloat(string(b[:n]), 64)
	return f, n, err == nil
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
