package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"strconv"

	"rrtcp/internal/sim"
)

// NDJSONSink streams events as newline-delimited JSON, one object per
// line, suitable for tailing and for cmd/rrtrace. Encoding is hand
// rolled and allocation-free: the timestamp is written from the integer
// nanosecond count (and reused while consecutive events share an
// instant), keys come from fragments quoted once at init, and each line
// is built directly in the buffered writer's free space. See
// docs/PERFORMANCE.md ("what listening costs") for the measured
// per-event cost.
//
// Line shape:
//
//	{"t":1.234567890,"comp":"rr","kind":"actnum","flow":0,"seq":61000,"actnum":4,"ndup":3}
//
// "t" is sim time in seconds with exactly nine fraction digits — the
// event's nanosecond timestamp as a decimal, not a rounded float. "src"
// appears for instance-scoped components (queues, links, loss modules);
// "flow" is omitted for events not tied to a connection; the last one
// or two keys are the kind-specific attributes of Event.A/B.
type NDJSONSink struct {
	w   *bufio.Writer
	at  sim.Time // the instant ts encodes
	ts  []byte   // `{"t":<at>`, the opening of every line at that instant
	err error
}

// lineFixedMax bounds an encoded line excluding its "src" value: the
// longest timestamp, key fragments, two integers and two floats come to
// 211 bytes.
const lineFixedMax = 256

// Per-line fragments, quoted once: compFrag[c] is `,"comp":"rr"`,
// kindFrag[k] is `,"kind":"actnum"`, attrFrag[k] holds the `,"actnum":`
// and `,"ndup":` keys of the kind's A and B slots (empty: slot unused).
// Index 0 carries the "?" spelling of out-of-vocabulary values.
var (
	compFrag [compSentinel]string
	kindFrag [kindSentinel]string
	attrFrag [kindSentinel][2]string
)

func init() {
	for c := range compFrag {
		compFrag[c] = `,"comp":"` + Component(c).String() + `"`
	}
	for k := range kindFrag {
		kindFrag[k] = `,"kind":"` + Kind(k).String() + `"`
		for slot, name := range [2]string{kindTable[k].a, kindTable[k].b} {
			if name != "" {
				attrFrag[k][slot] = `,"` + name + `":`
			}
		}
	}
}

// NewNDJSONSink wraps w in a buffered NDJSON event writer. Call Close
// (or Flush) before reading the output.
func NewNDJSONSink(w io.Writer) *NDJSONSink {
	return &NDJSONSink{w: bufio.NewWriterSize(w, 64<<10), ts: appendSimTime([]byte(`{"t":`), 0)}
}

// Emit implements Sink.
func (n *NDJSONSink) Emit(ev Event) {
	if n.err != nil {
		return
	}
	// Make room first, so the line is appended in place below (escaping
	// expands a src byte to at most six).
	if n.w.Available() < lineFixedMax+6*len(ev.Src) {
		if n.err = n.w.Flush(); n.err != nil {
			return
		}
	}
	if ev.At != n.at {
		n.at = ev.At
		n.ts = appendSimTime(n.ts[:len(`{"t":`)], ev.At)
	}
	comp, kind := ev.Comp, ev.Kind
	if comp >= compSentinel {
		comp = 0
	}
	if kind >= kindSentinel {
		kind = 0
	}
	b := append(n.w.AvailableBuffer(), n.ts...)
	b = append(b, compFrag[comp]...)
	b = append(b, kindFrag[kind]...)
	if ev.Src != "" {
		b = append(b, `,"src":`...)
		b = appendJSONString(b, ev.Src)
	}
	if ev.Flow != NoFlow {
		b = append(b, `,"flow":`...)
		b = strconv.AppendInt(b, int64(ev.Flow), 10)
	}
	if ev.Seq != 0 {
		b = append(b, `,"seq":`...)
		b = strconv.AppendInt(b, ev.Seq, 10)
	}
	if key := attrFrag[kind][0]; key != "" {
		b = append(b, key...)
		b = appendJSONFloat(b, ev.A)
	}
	if key := attrFrag[kind][1]; key != "" {
		b = append(b, key...)
		b = appendJSONFloat(b, ev.B)
	}
	b = append(b, '}', '\n')
	if _, err := n.w.Write(b); err != nil {
		n.err = err
	}
}

// appendSimTime appends t in seconds with nine fraction digits, byte
// for byte what strconv.AppendFloat(b, t.Seconds(), 'f', 9, 64) writes,
// from the integer nanosecond count. AppendFloat stays as the fallback
// outside [0, 1e15) ns, where the float rounding it applies to Seconds()
// could differ from the exact decimal.
func appendSimTime(b []byte, t sim.Time) []byte {
	if t < 0 || t >= 1e15 {
		return strconv.AppendFloat(b, t.Seconds(), 'f', 9, 64)
	}
	b = strconv.AppendUint(b, uint64(t)/1e9, 10)
	b = append(b, ".000000000"...)
	frac := uint64(t) % 1e9
	for i := len(b) - 1; frac > 0; i-- {
		b[i] = byte('0' + frac%10)
		frac /= 10
	}
	return b
}

// appendJSONString appends s as a JSON string; instance names are plain
// ASCII identifiers, so the fast path just quotes, falling back to
// encoding/json for anything that needs escaping.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c == '"' || c == '\\' || c >= 0x7f {
			enc, _ := json.Marshal(s)
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}

// appendJSONFloat writes integral values without a decimal point (the
// common case: occupancies, counts) and everything else compactly.
func appendJSONFloat(b []byte, v float64) []byte {
	if v == float64(int64(v)) {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}

// Flush pushes buffered lines to the underlying writer.
func (n *NDJSONSink) Flush() error {
	if n.err != nil {
		return n.err
	}
	return n.w.Flush()
}

// Close flushes; the underlying writer's lifetime belongs to the caller.
func (n *NDJSONSink) Close() error { return n.Flush() }

// Err returns the first write error encountered, if any.
func (n *NDJSONSink) Err() error { return n.err }

// DecodeStats reports what a decode pass saw besides the events it
// handed to its sinks.
type DecodeStats struct {
	// Lines counts non-blank input lines.
	Lines int
	// Skipped counts malformed lines that were dropped.
	Skipped int
	// FirstErr describes the first malformed line, for diagnostics.
	FirstErr error
	// Unknown counts well-formed lines whose component or kind is not in
	// this build's vocabulary (a log from a newer build); no sink sees
	// them, but they are not damage.
	Unknown int
	// FirstUnknown describes the first such line.
	FirstUnknown error
}

// maxDecodeLine caps how much of a single input line the lenient
// decoder buffers. No line NDJSONSink writes comes near it; a line that
// exceeds it (foreign output, binary garbage) is skipped and counted
// like any other malformed line rather than aborting the decode.
const maxDecodeLine = 1 << 20

// DecodeNDJSON reads an event log produced by NDJSONSink and hands each
// event it was written from to every sink, in order, as its line is
// read: a bus fed from the file, so any Sink reads a log as it would
// have read the live run, and no decoded log is ever held. A test that
// wants the events passes an unbounded Ring. The decoder skips and
// counts malformed lines instead of aborting, which is what logs
// truncated mid-line (a killed run) or polluted by interleaved stderr
// need; lines longer than maxDecodeLine are likewise skipped and
// counted. The returned error covers only I/O-level failures; parse
// problems are reported through DecodeStats.
func DecodeNDJSON(r io.Reader, sinks ...Sink) (DecodeStats, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var stats DecodeStats
	var d lineDecoder
	lineNo := 0
	skip := func(lineNo int, err error) {
		stats.Skipped++
		if stats.FirstErr == nil {
			stats.FirstErr = fmt.Errorf("telemetry: line %d: %w", lineNo, err)
		}
	}
	var acc []byte    // a line longer than the read buffer, accumulated
	overlong := false // current line already past maxDecodeLine
	var readErr error // terminal I/O error, reported after the last line
	for {
		chunk, err := br.ReadSlice('\n')
		if err == bufio.ErrBufferFull {
			acc = append(acc, chunk...)
			if len(acc) > maxDecodeLine {
				// Stop accumulating a runaway line; remember to skip it
				// when its newline finally arrives.
				acc = acc[:0]
				overlong = true
			}
			continue
		}
		atEOF := err != nil
		if atEOF && err != io.EOF {
			readErr = err
		}
		line := chunk // valid until the next read
		if len(acc) > 0 {
			acc = append(acc, chunk...)
			line = acc
		}
		wasOverlong := overlong || len(line) > maxDecodeLine
		line = bytes.TrimSpace(line)
		acc, overlong = acc[:0], false
		if len(line) == 0 && !wasOverlong {
			if atEOF {
				break
			}
			continue
		}
		lineNo++
		stats.Lines++
		if wasOverlong {
			skip(lineNo, fmt.Errorf("line exceeds %d-byte cap", maxDecodeLine))
			if atEOF {
				break
			}
			continue
		}
		ev, unknown, err := d.decode(line)
		switch {
		case err != nil:
			skip(lineNo, err)
		case unknown != "":
			stats.Unknown++
			if stats.FirstUnknown == nil {
				stats.FirstUnknown = fmt.Errorf("telemetry: line %d: %s", lineNo, unknown)
			}
		default:
			for _, s := range sinks {
				s.Emit(ev)
			}
		}
		if atEOF {
			break
		}
	}
	if readErr != nil {
		return stats, fmt.Errorf("telemetry: read: %w", readErr)
	}
	return stats, nil
}

// Replay feeds events to the sinks in order, each event to every sink
// as a bus would have published it live.
func Replay(events []Event, sinks ...Sink) {
	for i := range events {
		for _, s := range sinks {
			s.Emit(events[i])
		}
	}
}
