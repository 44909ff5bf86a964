package experiments

import (
	"fmt"
	"sync"

	"rrtcp/internal/scenario"
	"rrtcp/internal/sweep"
	"rrtcp/internal/workload"
)

// grid is the shape every table and figure of the evaluation shares: a
// list of cells (variant × loss rate, fairness case, gateway, ...),
// each run once per seed, folded cell by cell into the result. It
// implements Experiment; an experiment is one grid literal.
type grid[C, O any] struct {
	name  string
	cells []C
	seeds []int64
	// label names a cell in job names and error messages.
	label func(C) string
	// run executes one (cell, seed) job on a worker goroutine, building
	// its world by rebuilding w (see freeList).
	run func(w *scenario.World, cell C, seed int64) (O, error)
	// fold reduces outs[cell][seed] — indexed like cells and seeds
	// whatever order the jobs finished in — into the result.
	fold func(outs [][]O) Renderable
}

// Name implements Experiment.
func (g *grid[C, O]) Name() string { return g.name }

// Jobs implements Experiment: cell-major, seeds innermost. The jobs
// rebuild the worlds of a free list their sweep owns.
func (g *grid[C, O]) Jobs() ([]sweep.Job, error) {
	jobs := make([]sweep.Job, 0, len(g.cells)*len(g.seeds))
	worlds := &freeList[scenario.World]{}
	for _, c := range g.cells {
		label := g.label(c)
		for _, seed := range g.seeds {
			jobs = append(jobs, sweep.Job{
				Name: fmt.Sprintf("%s seed=%d", label, seed),
				Seed: seed,
				Run: func(seed int64) (any, error) {
					return worlds.run(func(w *scenario.World) (any, error) {
						out, err := g.run(w, c, seed)
						if err != nil {
							return nil, fmt.Errorf("%s (%s): %w", g.name, label, err)
						}
						return out, nil
					})
				},
			})
		}
	}
	return jobs, nil
}

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

// Reduce implements Experiment.
func (g *grid[C, O]) Reduce(results []any) (Renderable, error) {
	flat, err := sweep.Collect[O](results)
	if err != nil {
		return nil, err
	}
	n := len(g.seeds)
	outs := make([][]O, len(g.cells))
	for i := range outs {
		outs[i] = flat[i*n : (i+1)*n]
	}
	return g.fold(outs), nil
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

// firstSeed returns outs[cell][0] for every cell: the rows of a grid
// that runs each cell under a single seed.
func firstSeed[O any](outs [][]O) []O {
	rows := make([]O, len(outs))
	for i, o := range outs {
		rows[i] = o[0]
	}
	return rows
}
