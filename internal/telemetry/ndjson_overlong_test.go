package telemetry

import (
	"errors"
	"math"
	"strings"
	"testing"
)

func TestDecodeLenientSkipsOverlongLines(t *testing.T) {
	long := strings.Repeat("x", maxDecodeLine+4096)
	input := `{"t":0.1,"comp":"sender","kind":"cwnd","flow":0,"cwnd":2}` + "\n" +
		long + "\n" +
		`{"t":0.2,"comp":"sender","kind":"cwnd","flow":0,"cwnd":3}` + "\n"
	out, stats, err := decodeAll(strings.NewReader(input))
	if err != nil {
		t.Fatalf("overlong line treated as I/O failure: %v", err)
	}
	if len(out) != 2 {
		t.Fatalf("decoded %d records, want the 2 good lines", len(out))
	}
	if out[0].A != 2 || out[1].A != 3 {
		t.Fatalf("wrong records survived: %+v", out)
	}
	if stats.Lines != 3 || stats.Skipped != 1 {
		t.Fatalf("stats = %+v, want 3 lines with 1 skipped", stats)
	}
	if stats.FirstErr == nil || !strings.Contains(stats.FirstErr.Error(), "exceeds") {
		t.Fatalf("FirstErr = %v, want the over-cap diagnostic", stats.FirstErr)
	}
}

func TestDecodeLenientOverlongLineAtEOF(t *testing.T) {
	// A runaway final line with no trailing newline (truncated log).
	input := `{"t":0.1,"comp":"sender","kind":"cwnd","flow":0,"cwnd":2}` + "\n" +
		strings.Repeat("y", maxDecodeLine+100)
	out, stats, err := decodeAll(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || stats.Skipped != 1 {
		t.Fatalf("got %d records, %d skipped; want 1 record and the tail skipped", len(out), stats.Skipped)
	}
}

// failAfterReader yields its payload, then a non-EOF error.
type failAfterReader struct {
	data []byte
	err  error
}

func (f *failAfterReader) Read(p []byte) (int, error) {
	if len(f.data) == 0 {
		return 0, f.err
	}
	n := copy(p, f.data)
	f.data = f.data[n:]
	return n, nil
}

func TestDecodeLenientStillReportsRealIOErrors(t *testing.T) {
	ioErr := errors.New("disk on fire")
	r := &failAfterReader{
		data: []byte(`{"t":0.1,"comp":"sender","kind":"cwnd","flow":0,"cwnd":2}` + "\n"),
		err:  ioErr,
	}
	out, _, err := decodeAll(r)
	if !errors.Is(err, ioErr) {
		t.Fatalf("err = %v, want the underlying I/O error", err)
	}
	if len(out) != 1 {
		t.Fatalf("lost the %d complete lines read before the failure", 1)
	}
}

// A flow number outside int32 is damage, not a flow: converting it would
// give an implementation-defined id.
func TestDecodeLenientSkipsOutOfRangeFlow(t *testing.T) {
	input := `{"t":0.1,"comp":"sender","kind":"cwnd","flow":3e9,"cwnd":2}` + "\n" +
		`{"t":0.2,"comp":"sender","kind":"cwnd","flow":-3e9,"cwnd":2}` + "\n" +
		`{"t":0.3,"comp":"sender","kind":"cwnd","flow":-2147483648,"cwnd":3}` + "\n"
	out, stats, err := decodeAll(strings.NewReader(input))
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != 1 || out[0].Flow != math.MinInt32 || stats.Skipped != 2 {
		t.Fatalf("got %+v, %d skipped; want only the in-range line", out, stats.Skipped)
	}
	if stats.FirstErr == nil || !strings.Contains(stats.FirstErr.Error(), "out of range") {
		t.Fatalf("FirstErr = %v, want the range diagnostic", stats.FirstErr)
	}
}
