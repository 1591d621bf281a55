package similarity

import (
	"math/rand"
	"sync/atomic"
	"testing"

	"kiff/internal/dataset"
)

// metrics resolves every registered metric.
func metrics(t *testing.T) []Metric {
	t.Helper()
	out := make([]Metric, 0, len(Names()))
	for _, name := range Names() {
		m, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// randBatchDataset draws a dataset with the given ID-space shape; wide
// item spaces versus few users exercise the |I| ≫ |U| scatter domain.
func randBatchDataset(r *rand.Rand, users, items int, binary bool) *dataset.Dataset {
	profiles := make([]map[uint32]float64, users)
	for u := range profiles {
		m := map[uint32]float64{}
		for n := r.Intn(12); n > 0; n-- {
			m[uint32(r.Intn(items))] = float64(1 + r.Intn(5))
		}
		profiles[u] = m // may stay empty: empty profiles are a required shape
	}
	return dataset.FromProfiles("batch-quick", profiles, binary)
}

// TestBatchKernelsEqualPairwise is the central pin of the batch path:
// for every metric, ScoreInto over every (pivot, all-others) chunk is
// bit-for-bit equal to the pairwise Func — no tolerance. The kernels
// visit shared IDs in the same ascending order as the pairwise merge, so
// even the accumulation-order-sensitive metrics (cosine dot,
// Adamic–Adar's Σ 1/ln|IPi|) match exactly; a tolerance would hide an
// ordering regression.
func TestBatchKernelsEqualPairwise(t *testing.T) {
	ms := metrics(t)
	r := rand.New(rand.NewSource(301))
	shapes := []struct {
		users, items int
	}{
		{12, 8},      // dense overlap
		{8, 4096},    // |I| ≫ |U|: wide, sparse scatter domain
		{40, 60},     // balanced
		{3, 100_000}, // extreme |I| ≫ |U|
	}
	for trial := 0; trial < 25; trial++ {
		shape := shapes[trial%len(shapes)]
		d := randBatchDataset(r, shape.users, shape.items, trial%2 == 0)
		for _, m := range ms {
			b := m.Prepare(d)
			pair, kernel := b.Pair, b.Batch()
			n := d.NumUsers()
			cands := make([]uint32, 0, n)
			scores := make([]float64, n)
			for u := 0; u < n; u++ {
				cands = cands[:0]
				for v := 0; v < n; v++ {
					if v != u {
						cands = append(cands, uint32(v))
					}
				}
				kernel.ScoreInto(scores[:len(cands)], uint32(u), cands)
				for i, v := range cands {
					if want := pair(uint32(u), v); scores[i] != want {
						t.Fatalf("%s: trial %d (%d users, %d items): ScoreInto(%d, %d) = %v, pairwise = %v",
							m.Name(), trial, shape.users, shape.items, u, v, scores[i], want)
					}
				}
			}
		}
	}
}

// TestBatchKernelFallbackPath shrinks the scratch-domain cap so pivots
// overflow it and the kernels take the pairwise fallback, which must
// score identically.
func TestBatchKernelFallbackPath(t *testing.T) {
	old := maxScratchDomain
	maxScratchDomain = 16
	defer func() { maxScratchDomain = old }()

	r := rand.New(rand.NewSource(307))
	d := randBatchDataset(r, 20, 500, false) // most pivots reference IDs ≥ 16
	for _, m := range metrics(t) {
		b := m.Prepare(d)
		pair, kernel := b.Pair, b.Batch()
		n := d.NumUsers()
		cands := make([]uint32, 0, n)
		for v := 1; v < n; v++ {
			cands = append(cands, uint32(v))
		}
		scores := make([]float64, len(cands))
		kernel.ScoreInto(scores, 0, cands)
		for i, v := range cands {
			if want := pair(0, v); scores[i] != want {
				t.Fatalf("%s: fallback ScoreInto(0, %d) = %v, pairwise = %v", m.Name(), v, scores[i], want)
			}
		}
	}
}

// TestBatchKernelReuseAcrossPivots re-uses one kernel across many pivots
// (the per-worker lifecycle) and checks no state leaks between epochs.
func TestBatchKernelReuseAcrossPivots(t *testing.T) {
	r := rand.New(rand.NewSource(311))
	d := randBatchDataset(r, 30, 40, false)
	for _, m := range metrics(t) {
		b := m.Prepare(d)
		pair, kernel := b.Pair, b.Batch()
		scores := make([]float64, 1)
		// Deliberately hop between pivots with very different profiles.
		for trial := 0; trial < 200; trial++ {
			u := uint32(r.Intn(d.NumUsers()))
			v := uint32(r.Intn(d.NumUsers()))
			if u == v {
				continue
			}
			kernel.ScoreInto(scores, u, []uint32{v})
			if want := pair(u, v); scores[0] != want {
				t.Fatalf("%s: reuse trial %d: ScoreInto(%d, %d) = %v, pairwise = %v",
					m.Name(), trial, u, v, scores[0], want)
			}
		}
	}
}

// TestCountedBatchCountsPairs: CountedBatch adds exactly one count per
// scored pair, matching what Counted would have recorded pairwise.
func TestCountedBatchCountsPairs(t *testing.T) {
	r := rand.New(rand.NewSource(317))
	d := randBatchDataset(r, 10, 20, true)
	var evals atomic.Int64
	factory := CountedBatch(Cosine{}.Prepare(d).Batch, &evals)
	kernel := factory()
	scores := make([]float64, 4)
	kernel.ScoreInto(scores[:3], 0, []uint32{1, 2, 3})
	kernel.ScoreInto(scores[:0], 4, nil)
	kernel.ScoreInto(scores[:4], 5, []uint32{6, 7, 8, 9})
	if got := evals.Load(); got != 7 {
		t.Fatalf("counted %d evals, want 7", got)
	}
}
