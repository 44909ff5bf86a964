package telemetry

import (
	"strings"
	"testing"
	"time"

	"rrtcp/internal/sim"
)

// fakeGauges is a scripted GaugeSource whose cwnd doubles each sample
// and which reports done after doneAfter samples.
type fakeGauges struct {
	cwnd    float64
	samples int
	doneAt  int
}

func (f *fakeGauges) SampleGauges(emit func(string, float64)) {
	f.samples++
	f.cwnd *= 2
	emit("cwnd", f.cwnd)
	emit("srtt", 0.1)
}

func (f *fakeGauges) Done() bool { return f.samples >= f.doneAt }

func TestSamplerPublishesSeries(t *testing.T) {
	sched := sim.NewScheduler(1)
	ring := NewRing(0)
	bus := NewBus(ring)
	s := NewSampler(sched, bus, 10*time.Millisecond)
	src := &fakeGauges{cwnd: 1, doneAt: 3}
	s.AddFlow(0, src)
	s.Start()
	sched.RunAll()

	// Three ticks (stops once the source is done), two gauges each.
	samples := ring.EventsOf(KSample)
	if len(samples) != 6 {
		t.Fatalf("samples = %d, want 6", len(samples))
	}
	if samples[0].At != 10*time.Millisecond || samples[0].Src != "cwnd" || samples[0].A != 2 {
		t.Fatalf("first sample = %+v", samples[0])
	}
	if sched.Now() != 30*time.Millisecond {
		t.Fatalf("sampler dragged the clock to %v", sched.Now())
	}
}

func TestSamplerInstanceGaugePrefix(t *testing.T) {
	sched := sim.NewScheduler(1)
	ring := NewRing(0)
	bus := NewBus(ring)
	s := NewSampler(sched, bus, 10*time.Millisecond)
	s.AddFlow(0, &fakeGauges{cwnd: 1, doneAt: 1})
	s.AddInstance(CompQueue, "fwd", queueGauge{})
	s.Start()
	sched.RunAll()
	var found bool
	for _, ev := range ring.EventsOf(KSample) {
		if ev.Comp == CompQueue && ev.Src == "fwd.qlen" && ev.Flow == NoFlow {
			found = true
		}
	}
	if !found {
		t.Fatal("no instance-prefixed queue sample published")
	}
}

type queueGauge struct{}

func (queueGauge) SampleGauges(emit func(string, float64)) { emit("qlen", 3) }

func TestSamplerNilOnDisabledBus(t *testing.T) {
	sched := sim.NewScheduler(1)
	if s := NewSampler(sched, nil, time.Millisecond); s != nil {
		t.Fatal("sampler on a nil bus should be nil")
	}
	if s := NewSampler(sched, NewBus(), time.Millisecond); s != nil {
		t.Fatal("sampler on an empty bus should be nil")
	}
	// The nil sampler is a no-op at every method.
	var s *Sampler
	s.AddFlow(0, &fakeGauges{})
	s.AddInstance(CompQueue, "fwd", queueGauge{})
	s.Start()
	sched.RunAll()
	if sched.Now() != 0 {
		t.Fatal("nil sampler scheduled work")
	}
}

func TestSeriesSinkCollectsAndSegments(t *testing.T) {
	sink := NewSeriesSink()
	feed := func() {
		sink.Emit(Event{At: ms(10), Comp: CompSender, Kind: KSample, Src: "cwnd", Flow: 0, A: 2})
		sink.Emit(Event{At: ms(20), Comp: CompSender, Kind: KSample, Src: "cwnd", Flow: 0, A: 4})
		sink.Emit(Event{At: ms(20), Comp: CompQueue, Kind: KSample, Src: "fwd.qlen", Flow: NoFlow, A: 1})
	}
	feed()
	feed() // republished run: regression rolls the segment
	series := sink.Series()
	if len(series) != 4 {
		t.Fatalf("series = %d, want 4 (2 gauges x 2 segments)", len(series))
	}
	if series[0].Src != "cwnd" || series[0].Seg != 0 || len(series[0].T) != 2 {
		t.Fatalf("first series = %+v", series[0])
	}
	if series[2].Seg != 1 {
		t.Fatalf("second run's series in segment %d, want 1", series[2].Seg)
	}
}

func TestSeriesSinkNilSafe(t *testing.T) {
	var sink *SeriesSink
	sink.Emit(Event{Kind: KSample})
	if sink.Series() != nil {
		t.Fatal("nil sink returned series")
	}
}

func TestWriteSeriesCSV(t *testing.T) {
	sink := NewSeriesSink()
	sink.Emit(Event{At: ms(10), Comp: CompSender, Kind: KSample, Src: "cwnd", Flow: 0, A: 2.5})
	sink.Emit(Event{At: ms(20), Comp: CompQueue, Kind: KSample, Src: "fwd.qlen", Flow: NoFlow, A: 3})
	var sb strings.Builder
	if err := WriteSeriesCSV(&sb, sink.Series()); err != nil {
		t.Fatal(err)
	}
	want := "seg,comp,src,flow,t,value\n" +
		"0,sender,cwnd,0,0.010000000,2.5\n" +
		"0,queue,fwd.qlen,,0.020000000,3\n"
	if sb.String() != want {
		t.Fatalf("csv:\n%s\nwant:\n%s", sb.String(), want)
	}
}
