package main

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// readsFlags is each subcommand's flag set: the flags its report reads.
var readsFlags = map[string][]string{
	"summary":  nil,
	"flows":    {"exemplars", "seed"},
	"filter":   {"comp", "flow", "from", "kind", "to"},
	"timeline": {"flow", "height", "width"},
	"spans":    nil,
	"metrics":  nil,
	"export":   {"format", "out"},
}

// Each subcommand refuses every flag it does not read before it reads
// the log or writes anything, and its -h succeeds and lists exactly the
// flags it reads.
func TestEveryCommandRefusesUnreadFlags(t *testing.T) {
	var names []string
	for _, reads := range readsFlags {
		names = append(names, reads...)
	}
	slices.Sort(names)
	names = slices.Compact(names)
	log := writeLog(t)
	for cmd, reads := range readsFlags {
		for _, name := range names {
			if slices.Contains(reads, name) {
				continue
			}
			dir := t.TempDir()
			value := "1"
			if name == "out" {
				value = filepath.Join(dir, "out")
			}
			args := []string{cmd, "-" + name + "=" + value, log}
			out, stderr, err := captureBoth(t, args...)
			if want := "flag provided but not defined: -" + name; err == nil || err.Error() != want {
				t.Errorf("%v: got error %v, want %q", args, err, want)
			}
			if out != "" {
				t.Errorf("%v: printed %q before refusing", args, out)
			}
			if !strings.Contains(stderr, "Usage of "+cmd+":") {
				t.Errorf("%v: stderr lacks the command's usage:\n%s", args, stderr)
			}
			if entries, _ := os.ReadDir(dir); len(entries) != 0 {
				t.Errorf("%v: created %d file(s)", args, len(entries))
			}
		}

		out, stderr, err := captureBoth(t, cmd, "-h")
		if err != nil || out != "" {
			t.Errorf("%s -h: error %v, stdout %q; want success and only the usage, on stderr", cmd, err, out)
		}
		var listed []string
		for _, line := range strings.Split(stderr, "\n") {
			if rest, ok := strings.CutPrefix(line, "  -"); ok {
				listed = append(listed, strings.Fields(rest)[0])
			}
		}
		if !slices.Equal(listed, reads) {
			t.Errorf("%s -h lists %v, want %v", cmd, listed, reads)
		}
	}
}
