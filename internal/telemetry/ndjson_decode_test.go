package telemetry

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"testing"

	"rrtcp/internal/sim"
)

// decodeNDJSONMap is DecodeNDJSON as it was before it decoded straight
// into Event: every line through encoding/json into a map[string]any.
// Kept as the oracle FuzzDecodeNDJSON holds the production decoder to.
func decodeNDJSONMap(r io.Reader) ([]Event, DecodeStats, error) {
	br := bufio.NewReaderSize(r, 64<<10)
	var out []Event
	var stats DecodeStats
	lineNo := 0
	skip := func(lineNo int, err error) {
		stats.Skipped++
		if stats.FirstErr == nil {
			stats.FirstErr = fmt.Errorf("telemetry: line %d: %w", lineNo, err)
		}
	}
	var buf []byte    // current line, accumulated across ReadSlice calls
	overlong := false // current line already past maxDecodeLine
	var readErr error // terminal I/O error, reported after the last line
	for {
		chunk, err := br.ReadSlice('\n')
		buf = append(buf, chunk...)
		if err == bufio.ErrBufferFull {
			if len(buf) > maxDecodeLine {
				// Stop accumulating a runaway line; remember to skip it
				// when its newline finally arrives.
				buf = buf[:0]
				overlong = true
			}
			continue
		}
		atEOF := err != nil
		if atEOF && err != io.EOF {
			readErr = err
		}
		line := bytes.TrimSpace(buf)
		wasOverlong := overlong || len(buf) > maxDecodeLine
		buf, overlong = buf[:0], false
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
		var raw map[string]any
		if err := json.Unmarshal(line, &raw); err != nil {
			skip(lineNo, err)
			continue
		}
		num := func(key string) float64 { f, _ := raw[key].(float64); return f }
		compName, _ := raw["comp"].(string)
		kindName, _ := raw["kind"].(string)
		ev := Event{
			At:   sim.Time(math.Round(num("t") * 1e9)),
			Comp: ParseComponent(compName),
			Kind: ParseKind(kindName),
			Flow: NoFlow,
			Seq:  int64(num("seq")),
		}
		ev.Src, _ = raw["src"].(string)
		flow, hasFlow := raw["flow"].(float64)
		if hasFlow {
			ev.Flow = int32(flow)
		}
		switch {
		case kindName == "":
			skip(lineNo, fmt.Errorf("missing \"kind\""))
		case hasFlow && (flow < math.MinInt32 || flow > math.MaxInt32):
			// No writer numbers a flow outside int32, and converting
			// such a number is implementation-defined.
			skip(lineNo, fmt.Errorf("flow %g out of range", flow))
		case ev.Comp == 0 || ev.Kind == 0:
			stats.Unknown++
			if stats.FirstUnknown == nil {
				stats.FirstUnknown = fmt.Errorf("telemetry: line %d: %s/%s", lineNo, compName, kindName)
			}
		default:
			a, b := ev.Kind.attrNames()
			if a != "" {
				ev.A = num(a)
			}
			if b != "" {
				ev.B = num(b)
			}
			out = append(out, ev)
		}
		if atEOF {
			break
		}
	}
	if readErr != nil {
		return out, stats, fmt.Errorf("telemetry: read: %w", readErr)
	}
	return out, stats, nil
}

// sameDecode fails unless both decoders read input to the same events
// and the same DecodeStats, FirstErr and FirstUnknown text included.
func sameDecode(t *testing.T, input []byte) {
	t.Helper()
	got, gotStats, gotErr := decodeAll(bytes.NewReader(input))
	want, wantStats, wantErr := decodeNDJSONMap(bytes.NewReader(input))
	if (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("error %v, oracle %v", gotErr, wantErr)
	}
	if len(got) != len(want) {
		t.Fatalf("%d events, oracle %d\ngot  %+v\nwant %+v", len(got), len(want), got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("event %d = %+v, oracle %+v", i, got[i], want[i])
		}
	}
	if gotStats.Lines != wantStats.Lines || gotStats.Skipped != wantStats.Skipped || gotStats.Unknown != wantStats.Unknown {
		t.Fatalf("stats %+v, oracle %+v", gotStats, wantStats)
	}
	if errText(gotStats.FirstUnknown) != errText(wantStats.FirstUnknown) {
		t.Fatalf("FirstUnknown %q, oracle %q", errText(gotStats.FirstUnknown), errText(wantStats.FirstUnknown))
	}
	if errText(gotStats.FirstErr) != errText(wantStats.FirstErr) {
		t.Fatalf("FirstErr %q, oracle %q", errText(gotStats.FirstErr), errText(wantStats.FirstErr))
	}
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// TestDecodeNDJSONMatchesMapOracle runs both decoders over every
// committed log and a set of lines no sink writes: escapes, invalid
// UTF-8, duplicate keys, nesting, numbers out of range, a null line.
func TestDecodeNDJSONMatchesMapOracle(t *testing.T) {
	for _, path := range []string{"testdata/fig5_drops3.ndjson", "../../cmd/rrtrace/testdata/damaged.ndjson", "../../cmd/rrtrace/testdata/sweeps.ndjson"} {
		b, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		sameDecode(t, b)
	}
	for _, line := range append(decodeSeeds, deepSeeds...) {
		sameDecode(t, []byte(line))
	}
}

// TestSinkLinesTakeTheShortPath encodes every kind, with and without
// src, flow and seq, with attribute values at the edges of
// appendJSONFloat and timestamps on both sides of appendSimTime's
// AppendFloat branch, and holds the short path to the map oracle on
// each line. A key the writer adds and the reader does not know fails
// here; in a log it would only send every line down the slow path.
// Non-finite values are left out: the writer emits invalid JSON for
// them, which both decoders skip.
func TestSinkLinesTakeTheShortPath(t *testing.T) {
	values := []float64{0, -3, 2.5, -0.125, 1e21, 5e-324, 12345678}
	times := []sim.Time{0, 1_234_567_890, 1e15, 3e15 + 7}
	var comps []Component
	for c := CompLink; c < compSentinel; c++ {
		if compNames[c] != "" {
			comps = append(comps, c)
		}
	}
	var d lineDecoder
	var buf bytes.Buffer
	sink := NewNDJSONSink(&buf)
	n := 0
	for k := KSend; k < kindSentinel; k++ {
		if kindTable[k].name == "" {
			continue // a retired slot
		}
		for opt := 0; opt < 8; opt++ {
			for i, v := range values {
				ev := Event{
					At:   times[n%len(times)],
					Comp: comps[n%len(comps)],
					Kind: k,
					Flow: NoFlow,
					A:    v,
					B:    values[(i+1)%len(values)],
				}
				n++
				if opt&1 != 0 {
					ev.Src = "fwd-0.q"
				}
				if opt&2 != 0 {
					ev.Flow = []int32{0, 7, math.MaxInt32, math.MinInt32}[i%4]
				}
				if opt&4 != 0 {
					ev.Seq = []int64{1, -5, 61000, 1 << 62}[i%4]
				}
				buf.Reset()
				sink.Emit(ev)
				if err := sink.Flush(); err != nil {
					t.Fatal(err)
				}
				line := bytes.TrimSpace(buf.Bytes())
				got, ok := d.short(line)
				if !ok {
					t.Fatalf("the short path refused %s", line)
				}
				want, _, _ := decodeNDJSONMap(bytes.NewReader(line))
				if len(want) != 1 || got != want[0] {
					t.Fatalf("%s: short path %+v, oracle %+v", line, got, want)
				}
			}
		}
	}
}

// decodeSeeds are lines at the edges of what a JSON object can be.
var decodeSeeds = []string{
	`{"t":0.5,"comp":"rr","kind":"actnum","flow":3,"seq":1000,"actnum":4,"ndup":2}`,
	`{"t":0.5,"comp":"queue","kind":"enqueue","src":"f\u0077d","qlen":1}`,
	`{"t":0.5,"comp":"queue","kind":"enqueue","src":"\ud83d\ude00 \ud800x \udc00","qlen":1}`,
	"{\"t\":0.5,\"comp\":\"queue\",\"kind\":\"enqueue\",\"src\":\"a\xffb\xed\xa0\x80\",\"qlen\":1}",
	`{"\u0074":1,"comp":"sender","\u006bind":"send","flow":0,"flow":"x"}`,
	`{"t":1,"comp":"sender","kind":"cwnd","cwnd":1,"cwnd":2,"seq":-0}`,
	`{"t":1,"comp":"sender","kind":"cwnd","cwnd":1e400}`,
	`{"t":1,"comp":"sender","kind":"cwnd","x":[1,{"y":[1e999]}]}`,
	`{"t":1,"comp":"sender","kind":"cwnd","x":[1,{"y":[true,false,null,"s"]}],"cwnd":1E-400}`,
	`{"t":1,"comp":"sender","kind":"cwnd","flow":4294967296}`,
	`{"t":1,"comp":"sender","kind":"cwnd","flow":-2147483648.5}`,
	`{"t":1,"comp":"sender","kind":""}`,
	`{"t":1,"comp":"nope","kind":"cwnd"}` + "\n" + `{"t":1,"comp":"sender","kind":"nope"}`,
	`null`, `[]`, `"x"`, `1`, `true`, `{}`, `{} {}`, `{"a":1,}`, `{"a" 1}`, `{"a":01}`, `{"a":1.}`,
	`{"a":-}`, `{"a":.5}`, `{"a":1e}`, `{"a":"\x"}`, `{"a":"\u12"}`, "{\"a\":\"\t\"}", `{"a":tru}`,
	` { "t" : 2 , "comp" : "link" , "kind" : "link-tx" , "src" : "fwd" } `,
}

// deepSeeds sit on encoding/json's nesting limit; too long to be good
// fuzz seeds.
var deepSeeds = []string{
	strings.Repeat("[", 10001) + strings.Repeat("]", 10001),
	`{"a":` + strings.Repeat("[", 9999) + strings.Repeat("]", 9999) + `}`,
	`{"a":` + strings.Repeat("[", 10000) + strings.Repeat("]", 10000) + `}`,
}

// FuzzDecodeNDJSON holds DecodeNDJSON to the map-based oracle on
// arbitrary input.
func FuzzDecodeNDJSON(f *testing.F) {
	for _, s := range decodeSeeds {
		f.Add([]byte(s))
	}
	if b, err := os.ReadFile("testdata/fig5_drops3.ndjson"); err == nil {
		f.Add(b[:600])
	}
	f.Fuzz(func(t *testing.T, input []byte) { sameDecode(t, input) })
}

// BenchmarkDecodeNDJSON decodes the committed fig5 log (714 lines) into
// a sink that keeps nothing: the decoder's own cost.
func BenchmarkDecodeNDJSON(b *testing.B) {
	log, err := os.ReadFile("testdata/fig5_drops3.ndjson")
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(log)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeNDJSON(bytes.NewReader(log), NullSink{}); err != nil {
			b.Fatal(err)
		}
	}
}
