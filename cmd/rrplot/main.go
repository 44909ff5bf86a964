// Command rrplot turns the paper's figures, as rrsim printed them with
// -json, into gnuplot-ready data files plus matching .gp scripts, for
// readers who want real plots instead of rrsim's ASCII rendering. It
// runs no simulation: a plot is the table rrsim printed.
//
// Usage:
//
//	rrplot [-out dir] <fig5|fig6|fig7> [result.json ...]
//
// Each input holds one or more `rrsim <fig> -json` documents; no input,
// or "-", reads stdin. A document of another figure is refused. fig6
// and fig7 take exactly one document; fig5 takes one per drop count and
// writes one goodput column for each, in input order:
//
//	rrsim fig7 -json | rrplot fig7
//	{ rrsim fig5 -json; rrsim fig5 -drops 6 -json; } | rrplot fig5
//
// Then: cd <dir> && gnuplot fig7.gp (produces fig7.png), etc.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"

	"rrtcp"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "rrplot:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("rrplot", flag.ContinueOnError)
	out := fs.String("out", "plots", "output directory for .dat/.gp files")
	if err := fs.Parse(args); errors.Is(err, flag.ErrHelp) {
		return nil
	} else if err != nil {
		return err
	}
	switch fs.Arg(0) {
	case "fig5":
		return plot(*out, fs.Args()[1:], false, fig5)
	case "fig6":
		return plot(*out, fs.Args()[1:], true, fig6)
	case "fig7":
		return plot(*out, fs.Args()[1:], true, fig7)
	default:
		return fmt.Errorf("unknown target %q; usage: rrplot [-out dir] <fig5|fig6|fig7> [result.json ...]", fs.Arg(0))
	}
}

// plot reads every document of every input ("-", or none at all: stdin)
// into an R, refusing a field R does not have, so a document of another
// figure or experiment is an error, and writes the files figure makes of
// them into dir. With one set it takes exactly one document, otherwise
// one or more.
func plot[R any](dir string, inputs []string, one bool, figure func([]*R) (map[string]string, error)) error {
	if len(inputs) == 0 {
		inputs = []string{"-"}
	}
	var docs []*R
	for _, path := range inputs {
		f := os.Stdin
		if path != "-" {
			var err error
			if f, err = os.Open(path); err != nil {
				return err
			}
			defer f.Close()
		}
		dec := json.NewDecoder(f)
		dec.DisallowUnknownFields()
		for n := 1; ; n++ {
			doc := new(R)
			if err := dec.Decode(doc); err == io.EOF {
				break
			} else if err != nil {
				return fmt.Errorf("%s: document %d: %w", path, n, err)
			}
			docs = append(docs, doc)
		}
	}
	if n := len(docs); n == 0 || one && n > 1 {
		return fmt.Errorf("read %d result documents; fig6 and fig7 take one, fig5 one or more", n)
	}
	files, err := figure(docs)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for name, content := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(content), 0o644); err != nil {
			return err
		}
	}
	return nil
}

// fig5 is grouped-bar data: variant, then its goodput in each document,
// one column per drop count.
func fig5(docs []*rrtcp.Figure5Result) (map[string]string, error) {
	var b, plots strings.Builder
	b.WriteString("# variant")
	using := "'fig5.dat' using 2:xtic(1)" // the first series labels the bars
	for i, doc := range docs {
		fmt.Fprintf(&b, " goodput%ddrops_kbps", doc.Config.Drops)
		fmt.Fprintf(&plots, "%s title '%d drops'", using, doc.Config.Drops)
		using = fmt.Sprintf(", '' using %d", i+3)
	}
	b.WriteString("\n")
	for _, first := range docs[0].Rows {
		b.WriteString(first.Variant.String())
		for i, doc := range docs {
			row, ok := doc.Row(first.Variant)
			if !ok {
				return nil, fmt.Errorf("fig5 document %d has no %s row", i+1, first.Variant)
			}
			fmt.Fprintf(&b, " %.1f", row.GoodputBps/1000)
		}
		b.WriteString("\n")
	}
	return map[string]string{"fig5.dat": b.String(), "fig5.gp": `set terminal png size 800,500
set output 'fig5.png'
set title 'Figure 5: effective throughput under burst loss'
set style data histograms
set style histogram clustered gap 1
set style fill solid 0.8 border -1
set ylabel 'goodput (Kbps)'
set yrange [0:*]
plot ` + plots.String() + "\n"}, nil
}

// fig6 is one sequence-plot series per variant.
func fig6(docs []*rrtcp.Figure6Result) (map[string]string, error) {
	files := map[string]string{}
	var plots []string
	for _, p := range docs[0].Panels {
		var b strings.Builder
		b.WriteString("# time_s packet_number\n")
		for _, pt := range p.Flow0Seq {
			fmt.Fprintf(&b, "%.6f %.0f\n", pt.X, pt.Y)
		}
		name := fmt.Sprintf("fig6-%s.dat", p.Variant)
		files[name] = b.String()
		plots = append(plots, fmt.Sprintf("'%s' using 1:2 with points pt 7 ps 0.4 title '%s'", name, p.Variant))
	}
	files["fig6.gp"] = fmt.Sprintf(`set terminal png size 900,500
set output 'fig6.png'
set title 'Figure 6: first flow under RED gateways'
set xlabel 'time (s)'
set ylabel 'packet number'
plot %s
`, strings.Join(plots, ", \\\n     "))
	return files, nil
}

// fig7 is the measured windows per variant plus the two model curves.
func fig7(docs []*rrtcp.Figure7Result) (map[string]string, error) {
	var b strings.Builder
	b.WriteString("# p model_sqrt padhye sack_window rr_window\n")
	for _, p := range docs[0].Config.LossRates {
		sack, okSACK := docs[0].Point(rrtcp.SACK, p)
		rr, okRR := docs[0].Point(rrtcp.RR, p)
		if !okSACK || !okRR {
			return nil, fmt.Errorf("fig7 document lacks a sack or rr point at p=%g", p)
		}
		fmt.Fprintf(&b, "%.4f %.2f %.2f %.2f %.2f\n",
			p, sack.ModelWindow, sack.PadhyeWindow, sack.Window, rr.Window)
	}
	return map[string]string{"fig7.dat": b.String(), "fig7.gp": `set terminal png size 800,500
set output 'fig7.png'
set title 'Figure 7: fitness to the square-root model'
set xlabel 'packet loss rate p'
set ylabel 'window = BW*RTT/MSS (packets)'
set logscale x
plot 'fig7.dat' using 1:2 with lines title 'C/sqrt(p)', \
     'fig7.dat' using 1:3 with lines title 'Padhye', \
     'fig7.dat' using 1:4 with linespoints title 'SACK', \
     'fig7.dat' using 1:5 with linespoints title 'RR'
`}, nil
}
