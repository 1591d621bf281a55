// Package engine is the unified builder engine behind every KNN-graph
// construction algorithm in this repository. It factors the plumbing the
// four algorithm packages used to duplicate — option normalization,
// metric preparation, heap allocation, similarity counting, per-iteration
// traces, and run finalization — into one place, and exposes a registry
// so new algorithms plug in without touching the dispatch sites.
//
// A construction run flows through four stages:
//
//	normalize — shared validation (Options.normalize) followed by the
//	            builder's algorithm-specific defaults (Builder.Normalize);
//	prepare   — the engine binds the metric to the dataset once
//	            (similarity.Metric.Prepare), wraps the binding's pairwise
//	            function and kernels with the evaluation counter, and
//	            allocates the bounded k-heaps (newSession);
//	refine    — the builder's construction loop proper (Builder.Refine),
//	            which reads the prepared Session and drives the heaps;
//	finalize  — the engine snapshots the heaps into a Graph and assembles
//	            the runstats.Run cost record (Session.finalize).
//
// Algorithm packages register themselves from an init function; importing
// kiff/internal/core, kiff/internal/nndescent, kiff/internal/hyrec or
// kiff/internal/bruteforce is what populates the registry.
package engine

import (
	"errors"
	"fmt"
	"math"
	"sync/atomic"
	"time"

	"kiff/internal/dataset"
	"kiff/internal/knngraph"
	"kiff/internal/knnheap"
	"kiff/internal/parallel"
	"kiff/internal/rcs"
	"kiff/internal/runstats"
	"kiff/internal/similarity"
)

// Options is the union of the parameters the registered builders consume.
// Shared fields (K, Metric, Workers, Seed, MaxIterations, Hook) apply to
// every builder; the rest are read by the builders named in their
// comments and ignored elsewhere. The zero value of every field selects
// that builder's paper default.
type Options struct {
	// K is the neighborhood size. Mandatory (≥ 1).
	K int
	// Metric is the similarity measure; nil selects cosine, the paper's
	// default.
	Metric similarity.Metric
	// Workers bounds parallelism (< 1 = all CPUs).
	Workers int
	// Seed drives every randomized component (initial graphs, shuffles).
	Seed int64
	// MaxIterations caps the refinement loop as a safety valve
	// (0 = unlimited).
	MaxIterations int
	// Hook, when non-nil, observes every refinement iteration (Fig 8
	// convergence traces).
	Hook runstats.IterHook

	// Gamma (KIFF) is the per-iteration candidate budget: 0 selects the
	// paper's 2k, negative means ∞ (exhaust the RCSs in one iteration,
	// yielding the exact graph, §III-D).
	Gamma int
	// Beta (KIFF, HyRec) is the termination threshold on average
	// neighborhood changes per user: 0 selects the paper's 0.001, negative
	// disables the threshold entirely — KIFF then iterates until its
	// candidate sets are exhausted (the exact mode); HyRec has no such
	// exhaustion point and rejects a negative Beta unless MaxIterations
	// bounds the loop.
	Beta float64
	// Delta (NN-Descent) is the termination threshold: stop when
	// per-iteration changes < Delta·K·|U| (0 selects the original 0.001).
	Delta float64
	// Sample (NN-Descent) is the ρ sampling rate of the original algorithm
	// in (0, 1]; 0 selects 1 (no sampling, the paper's configuration).
	Sample float64
	// R (HyRec) is the number of random users added to each candidate set
	// per iteration (paper default 0).
	R int
	// MinRating (KIFF) forwards the §VII candidate-insertion threshold to
	// the counting phase (0 disables it).
	MinRating float64
	// RandomOrderRCS (KIFF) shuffles each candidate set instead of ranking
	// it by shared-item count (ablation switch).
	RandomOrderRCS bool

	// Bands (bucketed) is the number of independent minhash bucketings the
	// locality-bucketed builder runs; each band partitions the population
	// once and builds per-bucket KNN within it. 0 selects 4. Together with
	// Sweeps this is the recall-vs-SimEvals knob: more bands recover more
	// true neighbors at proportionally more similarity evaluations.
	Bands int
	// BucketSize (bucketed) bounds the per-bucket population; buckets are
	// what keeps per-band construction O(|U|·BucketSize) instead of
	// O(candidate pairs). 0 selects 192.
	BucketSize int
	// Sweeps (bucketed) is the number of cross-bucket neighbor-of-neighbor
	// refinement passes after the per-bucket builds (0 selects 2, negative
	// disables refinement).
	Sweeps int
}

// normalize applies the validation every builder shares. Algorithm
// defaults are applied afterwards by Builder.Normalize.
func (o *Options) normalize() error {
	if o.K < 1 {
		return fmt.Errorf("kiff: K must be ≥ 1, got %d", o.K)
	}
	if o.Metric == nil {
		o.Metric = similarity.Cosine{}
	}
	if o.MaxIterations < 0 {
		return errors.New("kiff: MaxIterations must be ≥ 0")
	}
	if math.IsNaN(o.Beta) || math.IsNaN(o.Delta) || math.IsNaN(o.Sample) {
		return errors.New("kiff: thresholds must not be NaN")
	}
	if o.MinRating < 0 {
		return errors.New("kiff: MinRating must be ≥ 0")
	}
	return nil
}

// Builder is a KNN-graph construction algorithm plugged into the engine.
type Builder interface {
	// Name is the registry key and the Run.Algorithm label.
	Name() string
	// Normalize applies algorithm-specific defaults and validation on top
	// of the shared normalization.
	Normalize(o *Options) error
	// Refine runs the construction loop against the prepared session: it
	// reads s.Opts, evaluates pairs through s.Sim, and drives s.Heaps.
	Refine(s *Session) error
}

// Session is the prepared state of one construction run — the engine's
// "prepare" stage output, handed to Builder.Refine.
type Session struct {
	// Dataset is the input.
	Dataset *dataset.Dataset
	// Opts arrive fully normalized.
	Opts Options
	// Sim is the prepared, evaluation-counted similarity function.
	Sim similarity.Func
	// Heaps is the bounded per-user neighborhood set the refinement loop
	// drives; finalize snapshots it into the result graph.
	Heaps *knnheap.Set
	// Wall accumulates wall-clock phase measurements.
	Wall runstats.PhaseTimer
	// Work accumulates per-worker phase measurements; finalize divides
	// them by the worker count so PhaseTimes stay wall-clock-equivalent.
	Work runstats.PhaseTimer
	// Run is the cost record under assembly. Refine may append to its
	// traces via RecordIteration; finalize fills the totals.
	Run runstats.Run
	// RCS carries KIFF's counting-phase statistics when the builder ran
	// one (Table V); zero otherwise.
	RCS rcs.BuildStats

	// batch mints evaluation-counted one-vs-many kernels over the metric
	// bound to Dataset.
	batch similarity.BatchFactory
	evals atomic.Int64
	start time.Time
}

func newSession(b Builder, d *dataset.Dataset, o Options) *Session {
	s := &Session{Dataset: d, Opts: o, start: time.Now()}
	prepStart := time.Now()
	binding := o.Metric.Prepare(d)
	s.Sim = similarity.Counted(binding.Pair, &s.evals)
	s.batch = similarity.CountedBatch(binding.Batch, &s.evals)
	s.Heaps = knnheap.NewSet(d.NumUsers(), o.K)
	s.Wall.Add(runstats.PhasePreprocess, time.Since(prepStart))
	s.Run = runstats.Run{Algorithm: b.Name(), NumUsers: d.NumUsers(), K: o.K}
	return s
}

// Evals returns the number of similarity evaluations performed so far.
func (s *Session) Evals() int64 { return s.evals.Load() }

// Batcher mints a one-vs-many scoring kernel for one worker. Every
// scored pair is counted into SimEvals exactly like a Sim call, and the
// kernels score bit-identically to Sim, so builders are free to use
// either path without perturbing the §IV-C statistics. The returned
// kernel owns scratch memory and must stay confined to one goroutine.
func (s *Session) Batcher() similarity.Batcher { return s.batch() }

// RecordIteration closes refinement iteration iter: it appends the change
// count and cumulative evaluation count to the run traces and fires the
// iteration hook, mirroring what every algorithm's loop used to hand-roll.
func (s *Session) RecordIteration(iter int, changes int64) {
	s.Run.Iterations++
	s.Run.UpdatesPerIter = append(s.Run.UpdatesPerIter, changes)
	s.Run.EvalsAtIter = append(s.Run.EvalsAtIter, s.evals.Load())
	if s.Opts.Hook != nil {
		r := s.Opts.Hook(iter, knngraph.FromSet(s.Heaps), s.evals.Load())
		s.Run.RecallAtIter = append(s.Run.RecallAtIter, r)
	}
}

// finalize snapshots the heaps and completes the cost record.
func (s *Session) finalize() *Result {
	s.Run.WallTime = time.Since(s.start)
	s.Run.SimEvals = s.evals.Load()
	w := parallel.Workers(s.Opts.Workers)
	if n := s.Dataset.NumUsers(); w > n && n > 0 {
		w = n
	}
	for p := runstats.PhasePreprocess; p <= runstats.PhaseSimilarity; p++ {
		s.Run.PhaseTimes[p] = s.Wall.Duration(p) + s.Work.Duration(p)/time.Duration(w)
	}
	return &Result{Graph: knngraph.FromSet(s.Heaps), Run: s.Run, RCS: s.RCS}
}

// Result is the outcome of an engine run.
type Result struct {
	// Graph is the constructed KNN graph.
	Graph *knngraph.Graph
	// Run is the cost record of the construction (wall time, similarity
	// evaluations, per-phase breakdown).
	Run runstats.Run
	// RCS reports KIFF's counting-phase statistics (zero for builders
	// without a counting phase).
	RCS rcs.BuildStats
}

// Build constructs a KNN graph with the registered builder named algo,
// running the full normalize → prepare → refine → finalize pipeline.
func Build(algo string, d *dataset.Dataset, opts Options) (*Result, error) {
	b, err := Lookup(algo)
	if err != nil {
		return nil, err
	}
	if err := opts.normalize(); err != nil {
		return nil, err
	}
	if err := b.Normalize(&opts); err != nil {
		return nil, err
	}
	s := newSession(b, d, opts)
	if err := b.Refine(s); err != nil {
		return nil, err
	}
	return s.finalize(), nil
}
