package experiments

import (
	"fmt"

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
	// run executes one (cell, seed) job on a worker goroutine.
	run func(cell C, seed int64) (O, error)
	// fold reduces outs[cell][seed] — indexed like cells and seeds
	// whatever order the jobs finished in — into the result.
	fold func(outs [][]O) Renderable
}

// Name implements Experiment.
func (g *grid[C, O]) Name() string { return g.name }

// Jobs implements Experiment: cell-major, seeds innermost.
func (g *grid[C, O]) Jobs() ([]sweep.Job, error) {
	jobs := make([]sweep.Job, 0, len(g.cells)*len(g.seeds))
	for _, c := range g.cells {
		label := g.label(c)
		for _, seed := range g.seeds {
			jobs = append(jobs, sweep.Job{
				Name: fmt.Sprintf("%s seed=%d", label, seed),
				Seed: seed,
				Run: func(seed int64) (any, error) {
					out, err := g.run(c, seed)
					if err != nil {
						return nil, fmt.Errorf("%s (%s): %w", g.name, label, err)
					}
					return out, nil
				},
			})
		}
	}
	return jobs, nil
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
