package engine_test

import (
	"testing"

	"kiff/internal/dataset"
	"kiff/internal/engine"
	"kiff/internal/similarity"
)

// pairwiseOnly replaces a metric's kernels with an adapter that scores
// each candidate through the binding's pairwise function — the
// reference path.
type pairwiseOnly struct{ similarity.Metric }

func (p pairwiseOnly) Prepare(d *dataset.Dataset) similarity.Binding {
	b := p.Metric.Prepare(d)
	b.Batch = func() similarity.Batcher { return pairwiseBatcher{b.Pair} }
	return b
}

// pairwiseBatcher adapts a pairwise function to the Batcher interface.
type pairwiseBatcher struct{ pair similarity.Func }

func (p pairwiseBatcher) ScoreInto(dst []float64, u uint32, cands []uint32) {
	for i, v := range cands {
		dst[i] = p.pair(u, v)
	}
}

// TestBatchPathEqualsPairwisePath builds with every registered builder
// and every metric twice — once with the metric's batch kernels, once
// with the kernels replaced by its pairwise form — and requires identical
// graphs and identical SimEvals. This is the end-to-end guarantee that
// adopting the batched kernels changed no observable output: recall,
// neighbor lists, similarity values and the §IV-C evaluation counts are
// all byte-identical.
func TestBatchPathEqualsPairwisePath(t *testing.T) {
	d, err := dataset.Wikipedia.Generate(0.02, 9)
	if err != nil {
		t.Fatal(err)
	}
	for _, algo := range engine.Names() {
		for _, name := range similarity.Names() {
			metric, err := similarity.ByName(name)
			if err != nil {
				t.Fatal(err)
			}
			// Workers: 1 for determinism — HyRec and NN-Descent gather
			// candidates from heaps that concurrent workers mutate, so
			// multi-worker runs differ run-to-run regardless of the
			// scoring path.
			opts := engine.Options{K: 6, Metric: metric, Seed: 7, Workers: 1, MaxIterations: 8}
			batched, err := engine.Build(algo, d, opts)
			if err != nil {
				t.Fatalf("%s/%s batched: %v", algo, metric.Name(), err)
			}
			opts.Metric = pairwiseOnly{metric}
			plain, err := engine.Build(algo, d, opts)
			if err != nil {
				t.Fatalf("%s/%s pairwise: %v", algo, metric.Name(), err)
			}
			if batched.Run.SimEvals != plain.Run.SimEvals {
				t.Errorf("%s/%s: SimEvals %d (batched) != %d (pairwise)",
					algo, metric.Name(), batched.Run.SimEvals, plain.Run.SimEvals)
			}
			if bi, pi := batched.Run.Iterations, plain.Run.Iterations; bi != pi {
				t.Errorf("%s/%s: iterations %d (batched) != %d (pairwise)", algo, metric.Name(), bi, pi)
			}
			for u := 0; u < d.NumUsers(); u++ {
				bn := batched.Graph.Neighbors(uint32(u))
				pn := plain.Graph.Neighbors(uint32(u))
				if len(bn) != len(pn) {
					t.Fatalf("%s/%s: user %d has %d vs %d neighbors", algo, metric.Name(), u, len(bn), len(pn))
				}
				for i := range bn {
					if bn[i] != pn[i] {
						t.Fatalf("%s/%s: user %d neighbor %d: %+v (batched) != %+v (pairwise)",
							algo, metric.Name(), u, i, bn[i], pn[i])
					}
				}
			}
		}
	}
}

// TestSessionBatcherFallback: a session over a metric whose kernels are
// the pairwise adapter still counts every scored pair.
func TestSessionBatcherFallback(t *testing.T) {
	d, _, _ := dataset.Toy()
	res, err := engine.Build("brute-force", d, engine.Options{K: 2, Metric: pairwiseOnly{similarity.Cosine{}}})
	if err != nil {
		t.Fatal(err)
	}
	if res.Run.SimEvals == 0 {
		t.Error("pairwise-adapter kernels recorded no similarity evaluations")
	}
}
