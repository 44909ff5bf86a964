package main

import (
	"os"
	"runtime"
	"testing"
	"time"
	"unsafe"

	"rrtcp/internal/telemetry"
)

// writeStream writes a log of at least lines lines through an
// NDJSONSink, as a run of eight flows through one bottleneck would: each
// round a send, its enqueue and transmission, an ACK and a window; a
// sampled cwnd every 100 rounds; a drop and an RR recovery episode every
// 500 rounds; the queue drains every tenth round.
func writeStream(w *os.File, lines int) error {
	sink := telemetry.NewNDJSONSink(w)
	emit := func(at time.Duration, comp telemetry.Component, kind telemetry.Kind, src string, flow int32, a, b float64) {
		sink.Emit(telemetry.Event{At: at, Comp: comp, Kind: kind, Src: src, Flow: flow, Seq: int64(at / time.Microsecond), A: a, B: b})
	}
	const (
		sender = telemetry.CompSender
		rr     = telemetry.CompRR
		queue  = telemetry.CompQueue
		link   = telemetry.CompLink
		none   = telemetry.NoFlow
	)
	for f := int32(0); f < 8; f++ {
		emit(0, sender, telemetry.KFlowStart, "rr", f, 1e6, 0)
	}
	n := 8
	for i := 0; n < lines; i++ {
		at, f := time.Duration(i)*time.Millisecond, int32(i%8)
		occupancy := float64(i % 10)
		if occupancy == 9 {
			occupancy = 0
		}
		emit(at, sender, telemetry.KSend, "", f, 0, 0)
		emit(at, queue, telemetry.KEnqueue, "fwd", none, occupancy+1, 0)
		emit(at, link, telemetry.KLinkTx, "fwd", none, 1000, occupancy)
		emit(at, sender, telemetry.KAck, "", f, 0, 0)
		emit(at, sender, telemetry.KCwnd, "", f, float64(4+i%20), 0)
		n += 5
		if i%100 == 0 {
			emit(at, sender, telemetry.KSample, "cwnd", f, float64(4+i%20), 0)
			n++
		}
		if i%500 == 250 {
			emit(at, queue, telemetry.KDrop, "fwd", f, 25, 1)
			emit(at, rr, telemetry.KRecoveryEnter, "", f, 20, 10)
			emit(at, rr, telemetry.KActnum, "", f, 9, 3)
			emit(at, rr, telemetry.KRetreatProbe, "", f, 10, 0)
			emit(at, rr, telemetry.KRecoveryExit, "", f, 10, 0)
			n += 5
		}
	}
	return sink.Close()
}

// TestReadersStreamTheLog runs every report over a 200 000-line log
// piped in as it is written. Each must allocate, in all, less than the
// log's events would take held as a []Event: a report keeps what it
// reports, never the log.
func TestReadersStreamTheLog(t *testing.T) {
	const lines = 200_000
	budget := uint64(lines) * uint64(unsafe.Sizeof(telemetry.Event{}))
	null, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer null.Close()
	oldIn, oldOut := os.Stdin, os.Stdout
	defer func() { os.Stdin, os.Stdout = oldIn, oldOut }()
	for _, args := range [][]string{
		{"summary"}, {"flows"}, {"metrics"}, {"filter"}, {"timeline"}, {"spans"}, {"export", "-format", "csv"}, {"export"},
	} {
		r, w, err := os.Pipe()
		if err != nil {
			t.Fatal(err)
		}
		written := make(chan error, 1)
		go func() {
			written <- writeStream(w, lines)
			w.Close()
		}()
		os.Stdin, os.Stdout = r, null
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		runErr := run(append(args, "-"))
		runtime.ReadMemStats(&after)
		os.Stdin, os.Stdout = oldIn, oldOut
		r.Close()
		if err := <-written; err != nil || runErr != nil {
			t.Fatalf("%v: write %v, run %v", args, err, runErr)
		}
		grew := after.TotalAlloc - before.TotalAlloc
		t.Logf("%v: %d bytes", args, grew)
		if grew >= budget {
			t.Errorf("%v allocated %d bytes over %d lines, want less than the %d a []Event of them takes",
				args, grew, lines, budget)
		}
	}
}
