package main

import (
	"fmt"
	"runtime"
	"slices"
	"time"
)

// Set-up (input generation plus one warm-up round) is repeated at least
// minSetups times and until minSetupTime has passed, so that a workload
// with a short round still gets a steady median; setup_s is that median.
const (
	minSetups    = 3
	maxSetups    = 25
	minSetupTime = time.Second
)

type runConfig struct {
	seed    int64
	seconds float64
	scale   scale
	// pinned, when non-empty, is the digest every round must reproduce.
	pinned string
}

// checker applies the per-round correctness rule: the round's own
// checks pass and its model digest equals the pinned digest, or (at a
// seed with no pin) the digest of the first round seen.
type checker struct {
	want string
	// from says where want came from, for the failure message.
	from string
	res  *workloadResult
}

func newChecker(res *workloadResult, pinned string) *checker {
	return &checker{want: pinned, from: "pinned", res: res}
}

func (c *checker) check(what string, r *roundResult) {
	c.res.Attempted++
	reason := r.fail
	switch {
	case reason != "":
	case c.want == "":
		c.want, c.from = r.digest, "first round's"
	case r.digest != c.want:
		reason = fmt.Sprintf("model digest %.16s differs from the %s %.16s", r.digest, c.from, c.want)
	}
	if c.res.Digest == "" {
		c.res.Digest = r.digest
	}
	if reason == "" {
		return
	}
	c.res.Failed++
	if msg := what + ": " + reason; !slices.Contains(c.res.Failures, msg) {
		c.res.Failures = append(c.res.Failures, msg)
	}
}

// runUntraced measures one workload's end-to-end metrics: a closed loop
// of rounds on this goroutine, the next starting when the previous one
// returns.
func runUntraced(w *workloadDef, cfg runConfig) *workloadResult {
	res := &workloadResult{Name: w.name, Workers: w.workers, Metrics: map[string]metric{}}
	chk := newChecker(res, cfg.pinned)

	// Set-up: everything before the first timed round.
	var (
		r      rounder
		setups []float64
	)
	for begin := time.Now(); ; {
		start := time.Now()
		r = w.prepare(cfg.seed, cfg.scale)
		warm := r.round()
		setups = append(setups, time.Since(start).Seconds())
		chk.check("warm-up round", warm)
		if n := len(setups); cfg.scale.smoke || n == maxSetups || (n >= minSetups && time.Since(begin) >= minSetupTime) {
			break
		}
	}

	// Timed region.
	var (
		rounds        []float64
		before, after runtime.MemStats
		deadline      = time.Duration(cfg.seconds * float64(time.Second))
	)
	runtime.GC()
	runtime.ReadMemStats(&before)
	for begin := time.Now(); ; {
		rr := r.round()
		rounds = append(rounds, float64(rr.wall)/1e6)
		chk.check("timed round", rr)
		if cfg.scale.smoke || (len(rounds) >= 3 && time.Since(begin) >= deadline) {
			break
		}
	}
	runtime.ReadMemStats(&after)
	n := float64(len(rounds))
	res.Rounds = len(rounds)
	res.Metrics["setup_s"] = summarize(setups)
	res.Metrics["round_ms"] = summarize(rounds)
	res.Metrics["allocs_per_round"] = single(float64(after.Mallocs-before.Mallocs) / n)
	res.Metrics["alloc_mb_per_round"] = single(float64(after.TotalAlloc-before.TotalAlloc) / n / 1e6)

	// One more round whose world or results stay reachable: the live
	// heap a process is left holding after a run.
	kept := r.round()
	runtime.GC()
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(kept.keep)
	chk.check("retained round", kept)
	res.Metrics["retained_mb"] = single(float64(after.HeapAlloc) / 1e6)

	if cross := r.crossCheck(); cross != nil {
		chk.check("cross-check round", cross)
	}
	return res
}
