package trace

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
)

// WriteCSV streams the trace's samples as CSV with the header
// time_s,event,seq,value — the raw material for external analysis of a
// run (spreadsheets, pandas, gnuplot). The header row is emitted even
// for a nil receiver or an empty log, so downstream parsers always
// see a well-formed (if empty) file.
func (t *FlowTrace) WriteCSV(w io.Writer) error {
	samples := t.Samples()
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"time_s", "event", "seq", "value"}); err != nil {
		return fmt.Errorf("trace: csv header: %w", err)
	}
	for _, s := range samples {
		rec := []string{
			strconv.FormatFloat(s.At.Seconds(), 'f', 6, 64),
			s.Kind.String(),
			strconv.FormatInt(s.Seq, 10),
			strconv.FormatFloat(s.A, 'f', 3, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("trace: csv row: %w", err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("trace: csv flush: %w", err)
	}
	return nil
}
