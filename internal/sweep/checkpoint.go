package sweep

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// This file is the sweep engine's crash-safety layer: a checkpoint
// journal of completed job results. The engine appends one NDJSON
// record per finished job and, on resume, pre-fills the results slice
// from the journal so only the jobs that never completed re-execute.
// Because results merge in job-index order regardless of which run
// computed them, a resumed sweep's output is byte-identical to an
// uninterrupted one — the determinism contract survives a kill -9.
//
// Journals live in a content-addressed directory: the sweep identity
// (experiment name and every job's name and seed) hashes to a key, and the journal sits under
// <dir>/sweep-<name>-<key>/. A resumed run that changed anything about
// the job list lands in a different directory and starts fresh instead
// of merging records from a different sweep.

// journalRecord is one NDJSON line: a completed job keyed by
// (index, name, seed) with its result as raw JSON.
type journalRecord struct {
	Job    int             `json:"job"`
	Name   string          `json:"name,omitempty"`
	Seed   int64           `json:"seed"`
	Result json.RawMessage `json:"result"`
}

// journalMeta is the human-readable sidecar written next to the
// journal, describing the sweep the records belong to.
type journalMeta struct {
	Experiment string `json:"experiment"`
	Jobs       int    `json:"jobs"`
	Key        string `json:"key"`
}

// SweepKey returns the content hash identifying a sweep for
// checkpointing: a SHA-256 over the sweep name, job count, and every
// job's name and seed, truncated to 16 hex digits. The 0 hashed after
// the name keeps the key of every journal already written, which
// hashed a master seed of 0 there, so those journals still resume.
func SweepKey(name string, jobs []Job) string {
	h := sha256.New()
	fmt.Fprintf(h, "%s\n0\n%d\n", name, len(jobs))
	for i, j := range jobs {
		fmt.Fprintf(h, "%d %q %d\n", i, j.Name, j.Seed)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// Journal is a sweep checkpoint: an append-only NDJSON log of
// completed job results under a content-addressed directory. Open one
// with OpenJournal, hand it to Run via Config.Checkpoint, and Close it
// after the sweep. All methods are nil-safe, and the engine only
// touches the journal from its coordinating goroutine.
type Journal struct {
	dir    string
	path   string
	key    string
	f      *os.File
	w      *bufio.Writer
	decode func([]byte) (any, error)
	// restored maps job index to its decoded result from a previous
	// run's records.
	restored map[int]any
	skipped  int // malformed or mismatched records dropped on load
}

// OpenJournal opens (resume == true) or creates afresh (resume ==
// false) the checkpoint journal for the sweep identified by (cfg.Name,
// jobs) under dir. decode reconstructs one job's concrete
// result value from its stored JSON — it must invert json.Marshal of
// whatever Job.Run returns, or resumed results will not satisfy the
// experiment's Reduce.
//
// On resume, records from a previous run are loaded leniently: a
// truncated final line (the usual scar of a killed process) or a
// record whose seed no longer matches is skipped, not fatal, and the
// corresponding job simply re-executes.
func OpenJournal(dir string, cfg Config, jobs []Job, resume bool, decode func([]byte) (any, error)) (*Journal, error) {
	if decode == nil {
		return nil, fmt.Errorf("sweep: journal needs a result decoder")
	}
	key := SweepKey(cfg.Name, jobs)
	name := cfg.Name
	if name == "" {
		name = "sweep"
	}
	jdir := filepath.Join(dir, fmt.Sprintf("sweep-%s-%s", name, key))
	if err := os.MkdirAll(jdir, 0o755); err != nil {
		return nil, fmt.Errorf("sweep: journal dir: %w", err)
	}
	j := &Journal{
		dir:      jdir,
		path:     filepath.Join(jdir, "journal.ndjson"),
		key:      key,
		decode:   decode,
		restored: map[int]any{},
	}
	if resume {
		if err := j.load(jobs); err != nil {
			return nil, err
		}
	}
	meta, err := json.MarshalIndent(journalMeta{
		Experiment: cfg.Name, Jobs: len(jobs), Key: key,
	}, "", "  ")
	if err != nil {
		return nil, fmt.Errorf("sweep: journal meta: %w", err)
	}
	if err := os.WriteFile(filepath.Join(jdir, "meta.json"), append(meta, '\n'), 0o644); err != nil {
		return nil, fmt.Errorf("sweep: journal meta: %w", err)
	}
	flags := os.O_CREATE | os.O_WRONLY
	if resume {
		flags |= os.O_APPEND
	} else {
		flags |= os.O_TRUNC
	}
	f, err := os.OpenFile(j.path, flags, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: open journal: %w", err)
	}
	j.f = f
	j.w = bufio.NewWriterSize(f, 64<<10)
	return j, nil
}

// load reads a previous run's records. Malformed lines (a process
// killed mid-write leaves at most one) and records that no longer
// match the job list are counted in skipped and dropped.
func (j *Journal) load(jobs []Job) error {
	data, err := os.ReadFile(j.path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil // nothing to resume; valid first run with -resume
		}
		return fmt.Errorf("sweep: read journal: %w", err)
	}
	for _, line := range bytes.Split(data, []byte{'\n'}) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal(line, &rec); err != nil {
			j.skipped++
			continue
		}
		if rec.Job < 0 || rec.Job >= len(jobs) || jobs[rec.Job].Seed != rec.Seed {
			j.skipped++
			continue
		}
		res, err := j.decode(rec.Result)
		if err != nil {
			j.skipped++
			continue
		}
		j.restored[rec.Job] = res
	}
	return nil
}

// Dir returns the content-addressed directory the journal lives in.
func (j *Journal) Dir() string {
	if j == nil {
		return ""
	}
	return j.dir
}

// Key returns the sweep's content hash.
func (j *Journal) Key() string {
	if j == nil {
		return ""
	}
	return j.key
}

// Restored returns the decoded result for a job completed by a
// previous run, if the journal holds one.
func (j *Journal) Restored(index int) (any, bool) {
	if j == nil {
		return nil, false
	}
	res, ok := j.restored[index]
	return res, ok
}

// RestoredCount reports how many jobs a resume will skip.
func (j *Journal) RestoredCount() int {
	if j == nil {
		return 0
	}
	return len(j.restored)
}

// Skipped reports how many records were dropped on load (truncated
// tail, foreign or stale entries).
func (j *Journal) Skipped() int {
	if j == nil {
		return 0
	}
	return j.skipped
}

// Append journals one completed job. The record is flushed to the OS
// immediately so a killed process loses at most the line being
// written — which load skips on the next resume. Results restored from
// a previous run are not re-journaled.
func (j *Journal) Append(index int, name string, seed int64, result any) error {
	if j == nil {
		return nil
	}
	if _, ok := j.restored[index]; ok {
		return nil
	}
	raw, err := json.Marshal(result)
	if err != nil {
		return fmt.Errorf("sweep: journal job %d: %w", index, err)
	}
	line, err := json.Marshal(journalRecord{Job: index, Name: name, Seed: seed, Result: raw})
	if err != nil {
		return fmt.Errorf("sweep: journal job %d: %w", index, err)
	}
	if _, err := j.w.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("sweep: journal job %d: %w", index, err)
	}
	if err := j.w.Flush(); err != nil {
		return fmt.Errorf("sweep: journal flush: %w", err)
	}
	return nil
}

// Close flushes and closes the journal file. Safe on nil and after a
// prior Close.
func (j *Journal) Close() error {
	if j == nil || j.f == nil {
		return nil
	}
	err := j.w.Flush()
	if cerr := j.f.Close(); err == nil {
		err = cerr
	}
	j.f = nil
	return err
}
