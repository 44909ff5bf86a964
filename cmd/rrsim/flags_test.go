package main

import (
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"rrtcp"
)

// sampleValue is a value other than the default for every rrsim flag;
// a path lands under dir.
func sampleValue(name, dir string) string {
	switch name {
	case "runs":
		return "7"
	case "drops", "flows":
		return "5"
	case "seed":
		return "9"
	case "variants":
		return "rr"
	case "bytes":
		return "12345"
	case "horizon":
		return "7s"
	case "cells", "flow-exemplars":
		return "3"
	case "budget-events":
		return "100"
	case "parallel":
		return "2"
	case "stall-after":
		return "1s"
	case "http":
		return "127.0.0.1:0"
	case "quick", "delack", "flow-stats", "json", "progress", "resume":
		return "true"
	}
	return filepath.Join(dir, name)
}

// declaredFlags lists every flag rrsim declares.
func declaredFlags(t *testing.T) []string {
	t.Helper()
	var names []string
	new(settings).declare().VisitAll(func(f *flag.Flag) { names = append(names, f.Name) })
	if len(names) != 27 {
		t.Fatalf("rrsim declares %d flags, want 27: %v", len(names), names)
	}
	return names
}

// commands lists every rrsim command: each registered experiment, run
// and all.
func commands(t *testing.T) []string {
	t.Helper()
	cmds := []string{"run", "all"}
	for _, r := range rrtcp.Experiments() {
		cmds = append(cmds, r.Name)
	}
	if len(cmds) != 14 {
		t.Fatalf("%d commands, want 14: %v", len(cmds), cmds)
	}
	return cmds
}

// withStderr runs fn with os.Stderr sent to a file, and returns what fn
// wrote there.
func withStderr(t *testing.T, fn func()) string {
	t.Helper()
	f, err := os.Create(filepath.Join(t.TempDir(), "stderr"))
	if err != nil {
		t.Fatal(err)
	}
	old := os.Stderr
	os.Stderr = f
	fn()
	os.Stderr = old
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(f.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}

// A command's flag set holds the flags it reads and no other: every
// flag it does not read exits non-zero, naming the flag, with the
// command's usage on stderr, before anything is printed or any file
// made; -h lists exactly the flags it reads.
func TestEveryCommandRefusesUnreadFlags(t *testing.T) {
	names := declaredFlags(t)
	for _, cmd := range commands(t) {
		reads, _ := flagsOf(cmd)
		for _, name := range names {
			if slices.Contains(reads, name) {
				continue
			}
			dir := t.TempDir()
			args := []string{cmd, "-" + name + "=" + sampleValue(name, dir)}
			if cmd == "run" {
				args = append(args, "../../examples/scenarios/burstloss.json")
			}
			var out string
			var err error
			stderr := withStderr(t, func() { out, err = capture(t, func() error { return run(args) }) })
			if want := "flag provided but not defined: -" + name; err == nil || err.Error() != want {
				t.Errorf("%v: got error %v, want %q", args, err, want)
			}
			if out != "" {
				t.Errorf("%v: printed %q before refusing", args, out)
			}
			if !strings.Contains(stderr, "Usage of rrsim "+cmd+":") {
				t.Errorf("%v: stderr lacks the command's usage:\n%s", args, stderr)
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 0 {
				t.Errorf("%v: created %d file(s)", args, len(entries))
			}
		}

		var err error
		stderr := withStderr(t, func() { err = run([]string{cmd, "-h"}) })
		if err != nil {
			t.Errorf("%s -h: %v", cmd, err)
		}
		var listed []string
		for _, line := range strings.Split(stderr, "\n") {
			if rest, ok := strings.CutPrefix(line, "  -"); ok {
				listed = append(listed, strings.Fields(rest)[0])
			}
		}
		slices.Sort(reads)
		if reads = slices.Compact(reads); !slices.Equal(listed, reads) {
			t.Errorf("%s -h lists %v, want %v", cmd, listed, reads)
		}
	}
}

// The registry is what each experiment's Build reads: setting an option
// through its flag changes the built experiment's JSON — the
// configuration its result prints and its checkpoint is keyed by —
// exactly when the registration lists the flag. -events sets a bus,
// which no JSON holds; TestLogReproducesLiveOutputs (cmd/rrtrace) shows
// fig5 and stress publish on it.
func TestRegistryFlagsAreRead(t *testing.T) {
	marshal := func(name string, opts rrtcp.ExperimentOptions) string {
		e, err := rrtcp.BuildExperiment(name, opts)
		if err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		b, err := json.Marshal(e)
		if err != nil {
			t.Fatalf("marshal %s: %v", name, err)
		}
		return string(b)
	}
	var def settings
	def.declare()
	names := declaredFlags(t)
	for _, r := range rrtcp.Experiments() {
		for _, name := range r.Flags {
			if !slices.Contains(names, name) {
				t.Errorf("%s lists %q, which is no rrsim flag", r.Name, name)
			}
		}
		base := marshal(r.Name, def.opts)
		for _, name := range names {
			var s settings
			if err := s.declare().Set(name, sampleValue(name, t.TempDir())); err != nil {
				t.Fatalf("-%s: %v", name, err)
			}
			listed := slices.Contains(r.Flags, name)
			if reflect.DeepEqual(s.opts, def.opts) {
				// Not an option: only -events may be listed.
				if listed && name != "events" {
					t.Errorf("%s lists -%s, which sets no option", r.Name, name)
				}
				continue
			}
			if changed := marshal(r.Name, s.opts) != base; changed != listed {
				t.Errorf("%s: -%s changes the built experiment: %v; the registration lists it: %v",
					r.Name, name, changed, listed)
			}
		}
	}
}
