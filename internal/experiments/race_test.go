//go:build race

package experiments

// raceEnabled reports a -race build. Under the race detector sync.Pool
// drops pooled items at random, so a job's allocation count moves from
// run to run (fmt's printer pool serves the stress job's cell labels:
// 47 allocations without -race, 55 to 57 with it), and the allocation
// budgets hold no count there, as the standard library's AllocsPerRun
// tests do.
const raceEnabled = true
