package netem

import (
	"errors"
	"testing"
	"time"

	"rrtcp/internal/sim"
	"rrtcp/internal/sweep"
)

// echoWorld is a dumbbell carrying CBR data forward and one ACK back
// per delivered packet, so all 4n+2 links transmit.
func echoWorld(t *testing.T, s *sim.Scheduler, flows int) *Dumbbell {
	t.Helper()
	d, err := NewDumbbell(s, PaperDropTailConfig(flows))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < flows; i++ {
		d.ConnectReceiver(i, NodeFunc(func(p *Packet) {
			p.Release()
			ack := d.Pool().Get()
			ack.Flow, ack.Kind, ack.Size = i, Ack, 40
			d.ReceiverPort(i).Receive(ack)
		}))
		d.ConnectSender(i, NodeFunc(func(p *Packet) { p.Release() }))
		src := NewCBR(s, d.Pool(), i, 400e3, 1000, d.SenderPort(i))
		if err := src.Start(time.Duration(i) * time.Millisecond); err != nil {
			t.Fatal(err)
		}
	}
	return d
}

// txPackets sums TxPackets over every link of the dumbbell.
func txPackets(d *Dumbbell) uint64 {
	var n uint64
	for i := range d.links {
		n += d.links[i].TxPackets
	}
	return n
}

// The process-wide packet total is fed by per-scheduler counts flushed
// in batches; once Run returns it must equal the links' own counts
// exactly, however the run ended.
func TestGlobalPacketsMatchLinkCounts(t *testing.T) {
	for name, arm := range map[string]func(s *sim.Scheduler){
		"horizon": func(*sim.Scheduler) {},
		"guard-trip": func(s *sim.Scheduler) {
			s.SetGuard(func(_ sim.Time, processed uint64, _ int) error {
				if processed >= 5000 { // past one flush, short of the next
					return errors.New("budget")
				}
				return nil
			})
		},
		"stop": func(s *sim.Scheduler) {
			s.NewTimer(s.Stop).Reset(2500 * time.Millisecond)
		},
	} {
		t.Run(name, func(t *testing.T) {
			_, before := sim.GlobalCounters()
			s := sim.NewScheduler(1)
			d := echoWorld(t, s, 3)
			arm(s)
			s.Run(5 * time.Second)
			if tripped := s.Processed() == 5000; tripped != (name == "guard-trip") {
				t.Fatalf("guard tripped = %v after %d events", tripped, s.Processed())
			}
			if s.Now() == 5*time.Second && name != "horizon" {
				t.Fatal("run was not cut short")
			}
			_, after := sim.GlobalCounters()
			want := txPackets(d)
			if want < 1000 {
				t.Fatalf("world only transmitted %d packets", want)
			}
			if got := after - before; got != want {
				t.Fatalf("global packets grew by %d, links transmitted %d", got, want)
			}
		})
	}
}

// Four workers flushing into the shared totals at once lose nothing.
func TestGlobalPacketsExactAcrossSweep(t *testing.T) {
	_, before := sim.GlobalCounters()
	jobs := make([]sweep.Job, 16)
	for i := range jobs {
		jobs[i] = sweep.Job{Seed: sweep.DeriveSeed(1, i), Run: func(seed int64) (any, error) {
			s := sim.NewScheduler(seed)
			d := echoWorld(t, s, 2)
			s.Run(3 * time.Second)
			return txPackets(d), nil
		}}
	}
	results, err := sweep.Run(sweep.Config{Workers: 4}, jobs)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := sweep.Collect[uint64](results)
	if err != nil {
		t.Fatal(err)
	}
	var want uint64
	for _, n := range counts {
		want += n
	}
	_, after := sim.GlobalCounters()
	if got := after - before; got != want || want == 0 {
		t.Fatalf("global packets grew by %d, the sweep's links transmitted %d", got, want)
	}
}
