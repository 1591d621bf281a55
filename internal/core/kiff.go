// Package core implements KIFF (K-nearest-neighbor Impressively Fast and
// eFficient), the paper's primary contribution: a KNN-graph construction
// algorithm that replaces the random initial graph of greedy approaches
// with Ranked Candidate Sets precomputed from the user–item bipartite
// graph (Algorithm 1 of the paper).
//
// The counting phase lives in kiff/internal/rcs; this package implements
// the refinement phase: a greedy loop in which every user pops the top γ
// untried candidates from its RCS, evaluates the (expensive) similarity
// for exactly those pairs, and updates both endpoints' bounded k-heaps.
// The loop stops when the average number of heap changes per user in an
// iteration falls below the termination threshold β.
//
// The package also holds the counting walk (Walker, walk.go): the counting
// phase for one profile at a time with scoring moved into the count,
// which answers single-profile queries (Index) and builds and maintains
// the serving graph (kiff.Maintainer), exactly, with no candidate list.
//
// The algorithm is plugged into kiff/internal/engine (see builder.go):
// Build below is a thin adapter that maps Config onto engine.Options, so
// KIFF shares its option normalization, metric preparation and runstats
// instrumentation with every other registered builder.
//
// Two of the paper's design points are worth restating here:
//
//   - initialization is not a special case: heaps start empty and fill up
//     during the first iterations (§II-D, second optimization);
//   - with γ = ∞ (Gamma < 0) the candidate sets are exhausted in a single
//     iteration and, because the supported metrics satisfy Eq. (5)/(6),
//     the result is the exact KNN graph (§III-D) — a property the tests
//     verify against brute force.
package core

import (
	"kiff/internal/dataset"
	"kiff/internal/engine"
	"kiff/internal/knngraph"
	"kiff/internal/rcs"
	"kiff/internal/runstats"
	"kiff/internal/similarity"
)

// Config parameterizes a KIFF run. The zero value is not runnable; use
// DefaultConfig for the paper's defaults.
type Config struct {
	// K is the neighborhood size (paper default: 20, DBLP: 50).
	K int
	// Gamma is the number of candidates popped from each RCS per
	// iteration. Negative means ∞ (exhaust in one iteration). The paper
	// uses γ = 2k by default (§IV-D); Gamma == 0 selects that default.
	Gamma int
	// Beta is the termination threshold: the run stops when the average
	// number of neighborhood changes per user in an iteration drops below
	// Beta. Beta == 0 selects the paper default 0.001; a negative Beta
	// disables the threshold, so the loop keeps iterating until the
	// candidate sets are exhausted (the exact mode of §III-D).
	Beta float64
	// Metric is the similarity measure; nil selects cosine, the paper's
	// default.
	Metric similarity.Metric
	// Workers bounds parallelism (< 1 = all CPUs).
	Workers int
	// MinRating forwards the §VII candidate-insertion threshold to the
	// counting phase (0 disables it).
	MinRating float64
	// MaxIterations caps the refinement loop as a safety valve
	// (0 = unlimited; the loop always stops once the RCSs are exhausted).
	MaxIterations int
	// RandomOrderRCS shuffles each candidate set instead of ranking it by
	// shared-item count. This is an ablation switch: it isolates the value
	// of the *ordering* from the value of the *pruning*.
	RandomOrderRCS bool
	// Seed drives RandomOrderRCS shuffling.
	Seed int64
	// Hook, when non-nil, observes every iteration (used for the Fig 8
	// convergence traces).
	Hook runstats.IterHook
}

// DefaultConfig returns the paper's default parameters for a given k:
// γ = 2k, β = 0.001, cosine similarity, all CPUs.
func DefaultConfig(k int) Config {
	return Config{K: k, Gamma: 2 * k, Beta: 0.001, Metric: similarity.Cosine{}}
}

// engineOptions maps the Config onto the engine's shared option set.
func (cfg Config) engineOptions() engine.Options {
	return engine.Options{
		K:              cfg.K,
		Gamma:          cfg.Gamma,
		Beta:           cfg.Beta,
		Metric:         cfg.Metric,
		Workers:        cfg.Workers,
		MinRating:      cfg.MinRating,
		MaxIterations:  cfg.MaxIterations,
		RandomOrderRCS: cfg.RandomOrderRCS,
		Seed:           cfg.Seed,
		Hook:           cfg.Hook,
	}
}

// Result bundles the constructed graph with the run's cost metrics.
type Result struct {
	Graph *knngraph.Graph
	Run   runstats.Run
	// RCS reports the counting-phase statistics (Table V).
	RCS rcs.BuildStats
}

// Build runs KIFF on the dataset through the engine.
func Build(d *dataset.Dataset, cfg Config) (*Result, error) {
	res, err := engine.Build(Name, d, cfg.engineOptions())
	if err != nil {
		return nil, err
	}
	return &Result{Graph: res.Graph, Run: res.Run, RCS: res.RCS}, nil
}
