package telemetry

import (
	"fmt"
	"io"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Prometheus text-format exposition of a Registry.
//
// The registry's dotted naming convention "comp.instance.metric" maps
// onto Prometheus families: the component and metric become the family
// name and the instance becomes a label, so
//
//	sender.0.retransmits   -> rrsim_sender_retransmits_total{instance="0"}
//	queue.fwd.occupancy    -> rrsim_queue_occupancy{instance="fwd"}
//	sweep.job_latency_s    -> rrsim_sweep_job_latency_s{quantile=...}
//
// Counters gain the conventional _total suffix; histograms are exposed
// as summaries (quantile series plus _sum and _count). Everything is
// written sorted, so scrapes of an idle registry are byte-stable.

// promNamespace prefixes every exposed family.
const promNamespace = "rrsim"

// promSplit translates a dotted registry name into a family name (sans
// namespace/suffix) and an instance label value (empty when the name
// has no instance part).
func promSplit(name string) (family, instance string) {
	parts := strings.Split(name, ".")
	switch len(parts) {
	case 1:
		return promSanitize(parts[0]), ""
	case 2:
		return promSanitize(parts[0] + "_" + parts[1]), ""
	default:
		return promSanitize(parts[0] + "_" + parts[len(parts)-1]),
			strings.Join(parts[1:len(parts)-1], ".")
	}
}

// promSanitize maps a name onto the Prometheus metric-name alphabet
// [a-zA-Z0-9_:], collapsing anything else to '_'.
func promSanitize(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c == '_', c == ':':
			b.WriteByte(c)
		case c >= '0' && c <= '9':
			if i == 0 {
				b.WriteByte('_')
			}
			b.WriteByte(c)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// promEscape escapes a label value per the exposition format.
func promEscape(s string) string {
	var b strings.Builder
	for _, r := range s {
		switch r {
		case '\\':
			b.WriteString(`\\`)
		case '"':
			b.WriteString(`\"`)
		case '\n':
			b.WriteString(`\n`)
		default:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// promSample is one exposition line under a family.
type promSample struct {
	suffix string // appended to the family name ("", "_sum", "_count")
	labels string // rendered label block, "" or `{k="v",...}`
	value  float64
	intVal bool
}

type promFamily struct {
	name    string // full family name, namespace included
	typ     string // counter | gauge | summary
	samples []promSample
}

func promLabels(pairs ...[2]string) string {
	var parts []string
	for _, p := range pairs {
		if p[1] == "" {
			continue
		}
		parts = append(parts, fmt.Sprintf(`%s="%s"`, p[0], promEscape(p[1])))
	}
	if len(parts) == 0 {
		return ""
	}
	return "{" + strings.Join(parts, ",") + "}"
}

// summaryQuantiles are the quantile series exposed per histogram.
var summaryQuantiles = []struct {
	label string
	p     float64
}{{"0.5", 50}, {"0.9", 90}, {"0.99", 99}}

// WritePrometheus renders every metric in Prometheus text exposition
// format (version 0.0.4). Like Snapshot, it may run while publishers
// keep writing: values are read atomically and never block updates.
func (r *Registry) WritePrometheus(w io.Writer) error {
	fams := map[string]*promFamily{}
	add := func(name, typ string, s promSample) {
		f := fams[name]
		if f == nil {
			f = &promFamily{name: name, typ: typ}
			fams[name] = f
		}
		f.samples = append(f.samples, s)
	}

	for _, tagged := range r.metricNames() {
		kind, name := tagged[:1], tagged[2:]
		family, instance := promSplit(name)
		switch kind {
		case "c":
			add(promNamespace+"_"+family+"_total", "counter", promSample{
				labels: promLabels([2]string{"instance", instance}),
				value:  float64(r.Counter(name)), intVal: true,
			})
		case "g":
			add(promNamespace+"_"+family, "gauge", promSample{
				labels: promLabels([2]string{"instance", instance}),
				value:  r.Gauge(name),
			})
		case "l":
			h := r.LogHist(name)
			fam := promNamespace + "_" + family
			for _, q := range summaryQuantiles {
				add(fam, "summary", promSample{
					labels: promLabels([2]string{"instance", instance}, [2]string{"quantile", q.label}),
					value:  h.Quantile(q.p),
				})
			}
			add(fam, "summary", promSample{suffix: "_sum",
				labels: promLabels([2]string{"instance", instance}), value: h.Sum()})
			add(fam, "summary", promSample{suffix: "_count",
				labels: promLabels([2]string{"instance", instance}),
				value:  float64(h.Count()), intVal: true})
		}
	}

	names := make([]string, 0, len(fams))
	for n := range fams {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		f := fams[n]
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.name, f.typ); err != nil {
			return err
		}
		for _, s := range f.samples {
			var err error
			if s.intVal {
				_, err = fmt.Fprintf(w, "%s%s%s %d\n", f.name, s.suffix, s.labels, int64(s.value))
			} else {
				_, err = fmt.Fprintf(w, "%s%s%s %s\n", f.name, s.suffix, s.labels,
					strconv.FormatFloat(s.value, 'g', -1, 64))
			}
			if err != nil {
				return err
			}
		}
	}
	return nil
}

// promSampleLine matches one exposition sample line: a metric name, an
// optional label block, and a value.
var promSampleLine = regexp.MustCompile(
	`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[^{}]*\})? (NaN|[+-]?Inf|[-+0-9.eE]+)$`)

// promLabelPair matches one label inside a label block.
var promLabelPair = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"$`)

// ValidatePrometheus structurally checks Prometheus text-format output:
// every non-comment line must be a well-formed sample, label blocks must
// parse, values must be numeric, and every sample must belong to a
// family declared by a preceding # TYPE line (directly or via the
// summary _sum/_count suffixes). It is the test-side counterpart of
// WritePrometheus, and what the introspection-server tests scrape
// /metrics through.
func ValidatePrometheus(data []byte) error {
	typed := map[string]string{}
	lineNo := 0
	sawSample := false
	for _, line := range strings.Split(string(data), "\n") {
		lineNo++
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.Fields(line)
			if len(fields) >= 2 && fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("prometheus: line %d: malformed TYPE comment", lineNo)
				}
				switch fields[3] {
				case "counter", "gauge", "summary", "histogram", "untyped":
				default:
					return fmt.Errorf("prometheus: line %d: unknown type %q", lineNo, fields[3])
				}
				typed[fields[2]] = fields[3]
			}
			continue
		}
		m := promSampleLine.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("prometheus: line %d: malformed sample %q", lineNo, line)
		}
		name := m[1]
		if m[2] != "" {
			inner := m[2][1 : len(m[2])-1]
			for _, pair := range splitPromLabels(inner) {
				if !promLabelPair.MatchString(pair) {
					return fmt.Errorf("prometheus: line %d: malformed label %q", lineNo, pair)
				}
			}
		}
		if _, err := strconv.ParseFloat(strings.TrimPrefix(m[3], "+"), 64); err != nil &&
			m[3] != "NaN" && m[3] != "+Inf" && m[3] != "-Inf" {
			return fmt.Errorf("prometheus: line %d: bad value %q", lineNo, m[3])
		}
		base := name
		for _, suf := range []string{"_sum", "_count", "_bucket"} {
			if t, ok := typed[strings.TrimSuffix(name, suf)]; ok &&
				strings.HasSuffix(name, suf) && (t == "summary" || t == "histogram") {
				base = strings.TrimSuffix(name, suf)
			}
		}
		if _, ok := typed[base]; !ok {
			return fmt.Errorf("prometheus: line %d: sample %q has no preceding # TYPE", lineNo, name)
		}
		sawSample = true
	}
	_ = sawSample // an empty exposition (no metrics yet) is valid
	return nil
}

// splitPromLabels splits a label-block interior on commas that sit
// outside quoted values.
func splitPromLabels(s string) []string {
	var out []string
	depth := false // inside quotes
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '"':
			depth = !depth
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
