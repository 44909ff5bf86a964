package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"testing"

	"rrtcp/internal/sim"
	"rrtcp/internal/sweep"
	"rrtcp/internal/telemetry"
	"rrtcp/internal/telemetry/flowstats"
)

func get(t *testing.T, url string) (int, []byte) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("GET %s: read body: %v", url, err)
	}
	return resp.StatusCode, body
}

func TestServerEndpoints(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Inc("queue.fwd.drops", 3)
	reg.SetGauge("queue.fwd.occupancy", 7)
	reg.ObserveLog("sender.0.episode", 0.25)
	ps := telemetry.NewProgressState()

	srv := New(Config{Registry: reg, Progress: ps})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if srv.Addr() != addr {
		t.Errorf("Addr() = %q, Start returned %q", srv.Addr(), addr)
	}
	base := "http://" + addr

	code, body := get(t, base+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if err := telemetry.ValidatePrometheus(body); err != nil {
		t.Errorf("invalid exposition: %v\n%s", err, body)
	}
	for _, want := range []string{
		"rrsim_queue_drops_total{instance=\"fwd\"} 3",
		"rrsim_queue_occupancy{instance=\"fwd\"} 7",
		"rrsim_sim_events_total",
		"rrsim_sim_packets_total",
		"rrsim_process_goroutines",
	} {
		if !strings.Contains(string(body), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	code, body = get(t, base+"/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress status %d", code)
	}
	var snap telemetry.ProgressSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatalf("/progress not JSON: %v\n%s", err, body)
	}
	if snap.Active {
		t.Error("idle /progress reports an active sweep")
	}

	code, body = get(t, base+"/healthz")
	if code != http.StatusOK || !strings.Contains(string(body), `"status":"ok"`) {
		t.Errorf("/healthz = %d %q", code, body)
	}

	code, _ = get(t, base+"/debug/pprof/")
	if code != http.StatusOK {
		t.Errorf("/debug/pprof/ status %d", code)
	}
	code, _ = get(t, base+"/debug/pprof/cmdline")
	if code != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline status %d", code)
	}
}

// TestScrapeDuringParallelSweep is the live-introspection race check:
// four sweep workers publish into a shared registry while an HTTP
// client scrapes /metrics and /progress as fast as it can. Under
// -race this proves a scrape never tears or conflicts with publishers;
// functionally it checks the scraped exposition stays well-formed
// mid-run and the final totals are exact.
func TestScrapeDuringParallelSweep(t *testing.T) {
	sink := telemetry.NewMetricsSink()
	ps := telemetry.NewProgressState()
	srv := New(Config{Registry: sink.R, Progress: ps})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr

	// Scraper: hammer both read endpoints until the sweep finishes.
	var stop atomic.Bool
	scraped := make(chan error, 1)
	go func() {
		var firstErr error
		for !stop.Load() {
			resp, err := http.Get(base + "/metrics")
			if err == nil {
				body, rerr := io.ReadAll(resp.Body)
				resp.Body.Close()
				if rerr == nil {
					if verr := telemetry.ValidatePrometheus(body); verr != nil && firstErr == nil {
						firstErr = fmt.Errorf("mid-sweep exposition invalid: %w", verr)
					}
				}
			}
			if resp, err := http.Get(base + "/progress"); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
		scraped <- firstErr
	}()

	// The sweep: jobs write flow metrics straight into the shared
	// registry from worker goroutines — exactly the concurrent-publisher
	// load the registry documents as safe — while the coordinator feeds
	// progress events to both sinks.
	const jobs, perJob = 32, 200
	bus := telemetry.NewBus(sink, ps)
	js := make([]sweep.Job, jobs)
	for i := range js {
		i := i
		js[i] = sweep.Job{
			Name: fmt.Sprintf("job%d", i),
			Run: func(seed int64) (any, error) {
				for k := 0; k < perJob; k++ {
					sink.R.Inc("sender.0.data_sent", 1)
					sink.R.SetGauge("sender.0.cwnd", float64(k))
					sink.R.ObserveLog("sender.0.rtt_s", 0.001*float64(k+1))
				}
				return i, nil
			},
		}
	}
	if _, err := sweep.Run(sweep.Config{Name: "scrape-test", Workers: 4, Telemetry: bus}, js); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	if err := <-scraped; err != nil {
		t.Error(err)
	}

	if got := sink.R.Counter("sender.0.data_sent"); got != jobs*perJob {
		t.Errorf("sender.0.data_sent = %d, want %d", got, jobs*perJob)
	}
	snap := ps.Snapshot()
	if snap.Active || snap.Completed != jobs || snap.Jobs != jobs || snap.SweepsDone != 1 {
		t.Errorf("final progress snapshot off: %+v", snap)
	}
	if h := sink.R.LogHist("sweep.job_latency_s"); h == nil || h.Count() != jobs {
		t.Errorf("sweep.job_latency_s count = %v, want %d", h, jobs)
	}
}

func TestProgressLiveDuringSweep(t *testing.T) {
	ps := telemetry.NewProgressState()
	bus := telemetry.NewBus(ps)
	started := make(chan struct{})
	release := make(chan struct{})
	js := []sweep.Job{
		{Name: "gate", Run: func(int64) (any, error) {
			close(started)
			<-release
			return nil, nil
		}},
		{Name: "tail", Run: func(int64) (any, error) { return nil, nil }},
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		if _, err := sweep.Run(sweep.Config{Name: "live", Workers: 2, Telemetry: bus}, js); err != nil {
			t.Error(err)
		}
	}()
	<-started
	snap := ps.Snapshot()
	if !snap.Active || snap.Name != "live" || snap.Jobs != 2 {
		t.Errorf("mid-sweep snapshot = %+v, want active sweep %q with 2 jobs", snap, "live")
	}
	if snap.WallS < 0 {
		t.Errorf("live wall clock negative: %v", snap.WallS)
	}
	close(release)
	<-done
	final := ps.Snapshot()
	if final.Active || final.Completed != 2 {
		t.Errorf("final snapshot = %+v", final)
	}
}

func TestNilServerIsInert(t *testing.T) {
	var s *Server
	if addr, err := s.Start(":0"); err != nil || addr != "" {
		t.Errorf("nil Start = %q, %v", addr, err)
	}
	if s.Addr() != "" {
		t.Error("nil Addr non-empty")
	}
	if err := s.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
	if s.Registry() != nil {
		t.Error("nil Registry non-nil")
	}
}

func TestServerDoubleStartFails(t *testing.T) {
	s := New(Config{})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Start("127.0.0.1:0"); err == nil {
		t.Error("second Start succeeded")
	}
	// Empty sources still serve valid documents.
	code, body := get(t, "http://"+addr+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("/metrics status %d", code)
	}
	if err := telemetry.ValidatePrometheus(body); err != nil {
		t.Errorf("registry-less exposition invalid: %v", err)
	}
	code, body = get(t, "http://"+addr+"/progress")
	if code != http.StatusOK {
		t.Fatalf("/progress status %d", code)
	}
	var snap telemetry.ProgressSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Errorf("progress-less /progress not JSON: %v", err)
	}
}

// TestServerSlowClientTimeouts pins the hardening contract: header and
// body read deadlines protect handler goroutines from stalled peers,
// while no write deadline is set — /debug/pprof/profile legitimately
// streams for its whole ?seconds= window.
func TestServerSlowClientTimeouts(t *testing.T) {
	s := New(Config{})
	if _, err := s.Start("127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.srv.ReadHeaderTimeout <= 0 {
		t.Error("ReadHeaderTimeout unset: a stalled peer pins a goroutine forever")
	}
	if s.srv.ReadTimeout <= 0 {
		t.Error("ReadTimeout unset")
	}
	if s.srv.IdleTimeout <= 0 {
		t.Error("IdleTimeout unset: idle keep-alive connections never reaped")
	}
	if s.srv.WriteTimeout != 0 {
		t.Error("WriteTimeout set: would truncate long pprof profile streams")
	}
}

// TestServerCloseGraceful checks shutdown lets an in-flight scrape
// finish: a /metrics request racing Close must still complete with a
// full, valid body, and Close must be safe to call again afterwards.
func TestServerCloseGraceful(t *testing.T) {
	reg := telemetry.NewRegistry()
	reg.Inc("queue.fwd.drops", 1)
	s := New(Config{Registry: reg})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	type scrape struct {
		code int
		body []byte
		err  error
	}
	got := make(chan scrape, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/metrics")
		if err != nil {
			got <- scrape{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		got <- scrape{code: resp.StatusCode, body: body, err: err}
	}()
	// Close concurrently with the scrape; graceful shutdown means an
	// admitted request is never cut mid-body. If Close wins the race
	// outright the request is refused before it starts — also fine.
	if err := s.Close(); err != nil {
		t.Fatalf("graceful close: %v", err)
	}
	r := <-got
	if r.err == nil {
		if r.code != http.StatusOK {
			t.Fatalf("scrape racing Close got status %d", r.code)
		}
		if err := telemetry.ValidatePrometheus(r.body); err != nil {
			t.Fatalf("scrape racing Close returned a truncated exposition: %v", err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	// The listener is really gone.
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server still serving after Close")
	}
}

// TestFlowsScrapeDuringParallelSweep extends the live-introspection
// race check to the flow-analytics table: sweep workers complete flows
// into a shared FlowTable while an HTTP client hammers /flows. Under
// -race this proves a scrape never tears against Emit's folding;
// functionally every mid-run body must be a well-formed report and the
// final scrape must carry the exact flow counts.
func TestFlowsScrapeDuringParallelSweep(t *testing.T) {
	table := flowstats.New(flowstats.Config{Exemplars: 4, Seed: 1})
	srv := New(Config{Flows: table})
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	base := "http://" + addr

	var stop atomic.Bool
	scraped := make(chan error, 1)
	go func() {
		var firstErr error
		for !stop.Load() {
			resp, err := http.Get(base + "/flows")
			if err != nil {
				continue
			}
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil || firstErr != nil {
				continue
			}
			var r flowstats.Report
			if jerr := json.Unmarshal(body, &r); jerr != nil {
				firstErr = fmt.Errorf("mid-sweep /flows not a report: %w\n%s", jerr, body)
			} else if r.Completed > r.Started {
				firstErr = fmt.Errorf("mid-sweep /flows inconsistent: %d completed of %d started", r.Completed, r.Started)
			}
		}
		scraped <- firstErr
	}()

	// Each job completes a block of flows through the shared table —
	// the live-monitoring topology, where one table watches all
	// workers (the deterministic reduction path uses private tables).
	// All events share one timestamp: workers interleave arbitrarily,
	// and a rewinding clock would read as a new stream segment.
	const jobs, perJob = 16, 50
	const at = sim.Time(1e6)
	bus := telemetry.NewBus(table)
	js := make([]sweep.Job, jobs)
	for i := range js {
		i := i
		js[i] = sweep.Job{
			Name: fmt.Sprintf("flows%d", i),
			Run: func(seed int64) (any, error) {
				variant := "rr"
				if i%2 == 1 {
					variant = "reno"
				}
				for k := 0; k < perJob; k++ {
					id := int32(i*perJob + k)
					bus.Publish(telemetry.Event{At: at, Comp: telemetry.CompSender,
						Kind: telemetry.KFlowStart, Src: variant, Flow: id, Seq: 1000})
					bus.Publish(telemetry.Event{At: at, Comp: telemetry.CompSender,
						Kind: telemetry.KFlowStats, Src: variant, Flow: id, Seq: 1000, A: 1})
				}
				return i, nil
			},
		}
	}
	if _, err := sweep.Run(sweep.Config{Name: "flows-scrape", Workers: 4}, js); err != nil {
		t.Fatal(err)
	}
	stop.Store(true)
	if err := <-scraped; err != nil {
		t.Error(err)
	}

	code, body := get(t, base+"/flows")
	if code != http.StatusOK {
		t.Fatalf("/flows status %d", code)
	}
	var final flowstats.Report
	if err := json.Unmarshal(body, &final); err != nil {
		t.Fatalf("/flows not JSON: %v\n%s", err, body)
	}
	if final.Started != jobs*perJob || final.Completed != jobs*perJob {
		t.Errorf("final /flows counts %d/%d, want %d/%d",
			final.Completed, final.Started, jobs*perJob, jobs*perJob)
	}
	if len(final.Variants) != 2 {
		t.Errorf("final /flows has %d variants, want 2", len(final.Variants))
	}
}
