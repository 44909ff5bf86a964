package scenario

import (
	"encoding/json"
	"strings"
	"testing"
	"time"
)

const sampleScenario = `{
  "name": "burst loss demo",
  "seed": 3,
  "duration": "30s",
  "topology": {
    "flows": 2,
    "bottleneckBps": 800000,
    "bottleneckDelay": "50ms",
    "sideBps": 10000000,
    "sideDelay": "1ms",
    "forwardQueue": {"type": "droptail", "limit": 8}
  },
  "loss": {
    "drops": [{"flow": 0, "packets": [60, 61, 62]}]
  },
  "flows": [
    {"kind": "rr", "packets": 150, "window": 18, "ssthresh": 9},
    {"kind": "newreno", "window": 18, "startAt": "100ms"}
  ]
}`

func TestLoadAndRun(t *testing.T) {
	spec, err := Load(strings.NewReader(sampleScenario))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	if spec.Name != "burst loss demo" || spec.Seed != 3 {
		t.Fatalf("header wrong: %+v", spec)
	}
	if time.Duration(spec.Duration) != 30*time.Second {
		t.Fatalf("duration = %v", spec.Duration)
	}
	rep, err := spec.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if len(rep.Flows) != 2 {
		t.Fatalf("%d flow reports, want 2", len(rep.Flows))
	}
	rr := rep.Flows[0]
	if !rr.Finished {
		t.Fatal("finite RR flow did not finish")
	}
	if rr.Retransmits == 0 {
		t.Fatal("engineered drops produced no retransmissions")
	}
	if rep.Flows[1].Finished {
		t.Fatal("unbounded flow reported finished")
	}
	if rep.Flows[1].BytesAcked == 0 {
		t.Fatal("background flow moved no data")
	}
}

func TestRunDeterministic(t *testing.T) {
	run := func() *Report {
		spec, err := Load(strings.NewReader(sampleScenario))
		if err != nil {
			t.Fatalf("load: %v", err)
		}
		rep, err := spec.Run()
		if err != nil {
			t.Fatalf("run: %v", err)
		}
		return rep
	}
	a, b := run(), run()
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("non-deterministic reports:\n%s\n%s", aj, bj)
	}
}

func TestDurationJSON(t *testing.T) {
	var d Duration
	if err := json.Unmarshal([]byte(`"150ms"`), &d); err != nil {
		t.Fatalf("string form: %v", err)
	}
	if time.Duration(d) != 150*time.Millisecond {
		t.Fatalf("d = %v", d)
	}
	if err := json.Unmarshal([]byte(`1000000`), &d); err != nil {
		t.Fatalf("numeric form: %v", err)
	}
	if time.Duration(d) != time.Millisecond {
		t.Fatalf("d = %v", d)
	}
	out, err := json.Marshal(Duration(2 * time.Second))
	if err != nil || string(out) != `"2s"` {
		t.Fatalf("marshal: %s %v", out, err)
	}
	if err := json.Unmarshal([]byte(`"bogus"`), &d); err == nil {
		t.Fatal("bad duration accepted")
	}
	if err := json.Unmarshal([]byte(`{}`), &d); err == nil {
		t.Fatal("object duration accepted")
	}
}

func TestValidation(t *testing.T) {
	cases := map[string]string{
		"no duration":          `{"flows":[{"kind":"rr"}]}`,
		"no flows":             `{"duration":"1s"}`,
		"bad kind":             `{"duration":"1s","flows":[{"kind":"cubic"}]}`,
		"too few slots":        `{"duration":"1s","topology":{"flows":1},"flows":[{"kind":"rr"},{"kind":"rr"}]}`,
		"bad loss rate":        `{"duration":"1s","loss":{"rate":1.5},"flows":[{"kind":"rr"}]}`,
		"bursty rate too high": `{"duration":"1s","loss":{"rate":0.9,"burstLength":2},"flows":[{"kind":"rr"}]}`,
		"bursty certain loss":  `{"duration":"1s","loss":{"rate":1,"burstLength":2},"flows":[{"kind":"rr"}]}`,
		"unknown field":        `{"duration":"1s","bogus":1,"flows":[{"kind":"rr"}]}`,
		"negative bw":          `{"duration":"1s","topology":{"bottleneckBps":-1},"flows":[{"kind":"rr"}]}`,
		"bad queue type":       `{"duration":"1s","topology":{"forwardQueue":{"type":"codel"}},"flows":[{"kind":"rr"}]}`,
	}
	for name, in := range cases {
		t.Run(name, func(t *testing.T) {
			spec, err := Load(strings.NewReader(in))
			if err != nil {
				return // rejected at load: fine
			}
			if _, err := spec.Run(); err == nil {
				t.Fatalf("invalid scenario accepted: %s", in)
			}
		})
	}
}

func TestQueueSpecTypes(t *testing.T) {
	run := func(qtype string) error {
		in := `{"duration":"2s","topology":{"forwardQueue":{"type":"` + qtype + `","limit":10}},"flows":[{"kind":"rr","packets":20,"window":8}]}`
		spec, err := Load(strings.NewReader(in))
		if err != nil {
			return err
		}
		_, err = spec.Run()
		return err
	}
	for _, qtype := range []string{"droptail", "fifo", "red", "drr"} {
		if err := run(qtype); err != nil {
			t.Fatalf("%s: %v", qtype, err)
		}
	}
}

func TestReverseFlowScenario(t *testing.T) {
	in := `{
	  "duration": "10s",
	  "flows": [
	    {"kind": "rr", "packets": 50, "window": 18},
	    {"kind": "reno", "reverse": true, "window": 18}
	  ]
	}`
	spec, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	rep, err := spec.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !rep.Flows[0].Finished {
		t.Fatal("forward transfer did not finish")
	}
	if !rep.Flows[1].Reverse || rep.Flows[1].BytesAcked == 0 {
		t.Fatalf("reverse flow idle: %+v", rep.Flows[1])
	}
}

func TestUniformLossScenario(t *testing.T) {
	in := `{
	  "duration": "20s",
	  "loss": {"rate": 0.02},
	  "flows": [{"kind": "sack", "window": 32}]
	}`
	spec, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	rep, err := spec.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Flows[0].Retransmits == 0 {
		t.Fatal("2% random loss produced no retransmissions")
	}
}

func TestRenderText(t *testing.T) {
	spec, err := Load(strings.NewReader(sampleScenario))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	rep, err := spec.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	out := rep.RenderText()
	for _, want := range []string{"burst loss demo", "rr", "newreno", "fwd"} {
		if !strings.Contains(out, want) {
			t.Fatalf("render missing %q:\n%s", want, out)
		}
	}
}

func TestLoadFileMissing(t *testing.T) {
	if _, err := LoadFile("/nonexistent/scenario.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestGilbertLossScenario(t *testing.T) {
	in := `{
	  "duration": "30s",
	  "loss": {"rate": 0.02, "burstLength": 6},
	  "flows": [{"kind": "rr", "window": 32}]
	}`
	spec, err := Load(strings.NewReader(in))
	if err != nil {
		t.Fatalf("load: %v", err)
	}
	rep, err := spec.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Flows[0].Retransmits == 0 {
		t.Fatal("bursty channel produced no retransmissions")
	}
}
