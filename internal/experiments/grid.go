package experiments

import (
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"rrtcp/internal/scenario"
	"rrtcp/internal/sweep"
	"rrtcp/internal/workload"
)

// grid is the shape every table and figure of the evaluation shares: a
// list of cells (variant × loss rate, fairness case, fault case, stress
// cell, ...), each run once per seed it lists, folded cell by cell into
// the result. It is the package's one Experiment: an experiment is one
// grid literal.
type grid[C, O any] struct {
	name  string
	cells []C
	// seeds lists the seeds cell c runs under, one job each: one list
	// for every cell of most grids, the seed a cell carries in fig5,
	// chaos and stress.
	seeds func(C) []int64
	// label names a cell. Its job is "<label>" when the cell runs under
	// one seed and "<label> seed=<seed>" under each of several.
	label func(C) string
	// run executes one (cell, seed) job on a worker goroutine, building
	// its world by rebuilding w (see freeList). When the error carries
	// the sweep's Degraded marker (a tripped budget), the output run
	// returned with it still reaches fold.
	run func(w *scenario.World, cell C, seed int64) (O, error)
	// fold reduces outs[cell][seed] — indexed like cells and seeds
	// whatever order the jobs finished in — into the result.
	fold func(outs [][]O) (Renderable, error)
	// Config is the configuration as the result prints it. It is the
	// grid's one exported field, so it is all the grid's JSON holds: a
	// checkpoint's key covers it (see Run).
	Config any `json:"config"`
}

// Name implements Experiment.
func (g *grid[C, O]) Name() string { return g.name }

// Jobs implements Experiment: cell-major, seeds innermost. The jobs
// rebuild the worlds of a free list their sweep owns.
func (g *grid[C, O]) Jobs() ([]sweep.Job, error) {
	return g.jobsOn(&freeList[scenario.World]{}), nil
}

// jobsOn lists the jobs, which rebuild the worlds of worlds.
func (g *grid[C, O]) jobsOn(worlds *freeList[scenario.World]) []sweep.Job {
	jobs := make([]sweep.Job, 0, len(g.cells))
	for _, c := range g.cells {
		label := g.label(c)
		seeds := g.seeds(c)
		for _, seed := range seeds {
			name := label
			if len(seeds) > 1 {
				name = fmt.Sprintf("%s seed=%d", label, seed)
			}
			jobs = append(jobs, sweep.Job{
				Name: name,
				Seed: seed,
				Run: func(seed int64) (any, error) {
					return worlds.run(func(w *scenario.World) (any, error) {
						out, err := g.run(w, c, seed)
						if err != nil {
							return nil, &jobError[O]{out, fmt.Errorf("%s (%s): %w", g.name, label, err)}
						}
						return out, nil
					})
				},
			})
		}
	}
	return jobs
}

// jobError is a failed job's error together with the output its run
// returned. The sweep keeps only the error of a job that did not
// succeed; for a degraded job (sweep.Degraded) Reduce digs the output
// back out, so fold reports the cell up to its budget trip.
type jobError[O any] struct {
	out O
	err error
}

func (e *jobError[O]) Error() string { return e.err.Error() }
func (e *jobError[O]) Unwrap() error { return e.err }

// freeList hands a job of a sweep the scratch an earlier job of the same
// sweep finished with — above all a world, which the job rebuilds
// (scenario.World.Rebuild) rather than building a new one — so a sweep
// allocates scratch once per worker rather than once per job. It belongs
// to the Jobs call that made it: nothing outlives the sweep, and
// separate sweeps share nothing (docs/SWEEP.md, "What a job may share").
type freeList[T any] struct {
	mu   sync.Mutex
	free []*T
}

// run calls job with scratch from the list, a new zero T when it is
// empty. The scratch goes back only when job returns cleanly: one that
// failed or panicked may have left it half built or mid-run, so it is
// dropped. Nothing job returns may reference the scratch.
func (l *freeList[T]) run(job func(*T) (any, error)) (any, error) {
	x := l.get()
	out, err := job(x)
	if err == nil {
		l.put(x)
	}
	return out, err
}

func (l *freeList[T]) get() *T {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := len(l.free)
	if n == 0 {
		return new(T)
	}
	x := l.free[n-1]
	l.free = l.free[:n-1]
	return x
}

func (l *freeList[T]) put(x *T) {
	l.mu.Lock()
	l.free = append(l.free, x)
	l.mu.Unlock()
}

// Reduce implements Experiment. A result is the job's output, the
// journaled JSON of one (restored from a checkpoint), or the
// sweep.Degraded slot of a job whose budget tripped.
func (g *grid[C, O]) Reduce(results []any) (Renderable, error) {
	flat := make([]O, len(results))
	for i, r := range results {
		switch r := r.(type) {
		case O:
			flat[i] = r
		case json.RawMessage:
			if err := json.Unmarshal(r, &flat[i]); err != nil {
				return nil, fmt.Errorf("%s: journaled result %d: %w", g.name, i, err)
			}
		case sweep.Degraded:
			var je *jobError[O]
			if !errors.As(r.Err, &je) {
				return nil, fmt.Errorf("%s: %v", g.name, r)
			}
			flat[i] = je.out
		default:
			return nil, fmt.Errorf("%s: result %d is %T, want %T", g.name, i, r, flat[i])
		}
	}
	outs := make([][]O, len(g.cells))
	for k, c := range g.cells {
		n := len(g.seeds(c))
		outs[k], flat = flat[:n:n], flat[n:]
	}
	return g.fold(outs)
}

// kindAt is the commonest cell: one variant at one point of a swept
// parameter (a loss rate, a burst length).
type kindAt struct {
	kind workload.Kind
	x    float64
}

// crossKinds lists kinds × xs, kind-major.
func crossKinds(kinds []workload.Kind, xs []float64) []kindAt {
	cells := make([]kindAt, 0, len(kinds)*len(xs))
	for _, k := range kinds {
		for _, x := range xs {
			cells = append(cells, kindAt{k, x})
		}
	}
	return cells
}

// ownSeeds returns the cells 0 … n-1 of a grid whose cell i carries
// one seed, seed(i), and the seeds function that says so.
func ownSeeds(n int, seed func(i int) int64) (cells []int, seedOf func(int) []int64) {
	cells, seeds := make([]int, n), make([]int64, n)
	for i := range cells {
		cells[i], seeds[i] = i, seed(i)
	}
	return cells, func(i int) []int64 { return seeds[i : i+1] }
}

// mean averages f over one cell's outputs, summed in seed order.
func mean[O any](outs []O, f func(O) float64) float64 {
	var sum float64
	for _, o := range outs {
		sum += f(o)
	}
	return sum / float64(len(outs))
}

// firstSeed returns outs[cell][0] for every cell: the rows of a grid
// that runs each cell under a single seed.
func firstSeed[O any](outs [][]O) []O {
	rows := make([]O, len(outs))
	for i, o := range outs {
		rows[i] = o[0]
	}
	return rows
}
