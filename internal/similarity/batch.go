// Batched one-vs-many scoring kernels. The refinement loops of every
// builder score one pivot u against a chunk of candidates per step (γ=2k
// candidates for KIFF, the star/local joins of HyRec and NN-Descent), so
// the pivot's profile is re-merged γ times by the pairwise Func. The
// BatchMetric kernels exploit that locality: scatter the pivot's profile
// once into an epoch-stamped dense accumulator (sparse.Scratch), then
// score each candidate with a single gather over the candidate's own
// profile — O(|u| + Σ|v|) per chunk instead of O(Σ(|u|+|v|)), with one
// predictable branch per element instead of the merge's three-way one.
//
// The shared IDs are visited in the same ascending order as the pairwise
// merge, so every kernel is bit-for-bit equal to its metric's Func — the
// property tests in batch_test.go pin exactly that, and it is what keeps
// recall and SimEvals byte-identical whichever path a builder takes.
//
// Pivots whose ID span would need an oversized accumulator (see
// maxScratchDomain) fall back to the pairwise function, which itself
// switches to a galloping intersection on heavily skewed pairs.
package similarity

import (
	"sync/atomic"

	"kiff/internal/dataset"
	"kiff/internal/sparse"
)

// maxScratchDomain caps the dense accumulator a batch kernel will
// allocate: pivots referencing IDs beyond the cap are scored pairwise
// instead. 1<<22 IDs is ≈50 MB of per-worker scratch at the 12-byte
// worst case — past that, the scatter's cache behavior degrades toward
// the merge's anyway and the allocation dominates the work it saves.
var maxScratchDomain = 1 << 22

// Batcher scores one pivot against many candidates. A Batcher owns
// mutable scratch memory: it must stay confined to a single goroutine
// (batch phases allocate one per worker via the BatchFactory).
type Batcher interface {
	// ScoreInto fills dst[i] with the similarity of u and cands[i].
	// len(dst) must equal len(cands).
	ScoreInto(dst []float64, u uint32, cands []uint32)
}

// BatchFactory mints per-worker Batchers over one prepared binding.
// Bindings share the read-only prepared state (norms, item statistics);
// each minted kernel owns its private scratch.
type BatchFactory func() Batcher

// BatchMetric is an optional Metric extension for one-vs-many scoring.
// All built-in metrics implement it. PrepareBatch binds to the dataset
// like Prepare (and precomputes the same per-user/per-item state); the
// kernels the returned factory mints are exactly equal to the pairwise
// Func on every pair.
type BatchMetric interface {
	Metric
	PrepareBatch(d *dataset.Dataset) BatchFactory
}

// IncrementalBatch is the batch counterpart of Incremental: the returned
// pairwise function, batch factory and refresh share one incrementally
// maintained state, so refresh(u) keeps both scoring paths valid across
// dataset mutations. Like PrepareIncremental's result, the binding is
// single-writer: fn, minted kernels and refresh must not race.
type IncrementalBatch interface {
	Incremental
	PrepareIncrementalBatch(d *dataset.Dataset) (fn Func, batch BatchFactory, refresh func(u uint32))
}

// CountedBatch wraps a factory so every scored pair increments evals —
// one atomic add per chunk, against Counted's one per pair, while the
// total stays exactly the per-pair count (§IV-C's SimEvals metric).
func CountedBatch(f BatchFactory, evals *atomic.Int64) BatchFactory {
	return func() Batcher {
		return &countedBatcher{inner: f(), evals: evals}
	}
}

type countedBatcher struct {
	inner Batcher
	evals *atomic.Int64
}

func (c *countedBatcher) ScoreInto(dst []float64, u uint32, cands []uint32) {
	c.evals.Add(int64(len(cands)))
	c.inner.ScoreInto(dst, u, cands)
}

// PairwiseBatcher adapts a pairwise Func to the Batcher interface — the
// fallback for metrics without a batch form. The Func's own evaluation
// counting (Counted) carries over.
func PairwiseBatcher(fn Func) Batcher { return pairwiseBatcher{fn} }

type pairwiseBatcher struct{ fn Func }

func (p pairwiseBatcher) ScoreInto(dst []float64, u uint32, cands []uint32) {
	for i, v := range cands {
		dst[i] = p.fn(u, v)
	}
}

// fitsScratch reports whether the pivot's ID span fits the accumulator
// cap; IDs are sorted, so the last one is the span.
func fitsScratch(p sparse.Vector) bool {
	return len(p.IDs) == 0 || int(p.IDs[len(p.IDs)-1]) < maxScratchDomain
}

// --- Cosine -------------------------------------------------------------

// cosineState is the shared binding of the cosine kernels: the profile
// source and the norm cache, refreshed per mutated user on the
// incremental path.
type cosineState struct {
	d     *dataset.Dataset
	norms []float64
}

func newCosineState(d *dataset.Dataset) *cosineState {
	st := &cosineState{d: d, norms: make([]float64, len(d.Users))}
	for i, u := range d.Users {
		st.norms[i] = sparse.Norm(u)
	}
	return st
}

// refresh re-derives u's cached norm, growing the cache in one step for
// appended users.
func (st *cosineState) refresh(u uint32) {
	if n := int(u) + 1; n > len(st.norms) {
		st.norms = append(st.norms, make([]float64, n-len(st.norms))...)
	}
	st.norms[u] = sparse.Norm(st.d.Users[u])
}

func (st *cosineState) pair(u, v uint32) float64 {
	nu, nv := st.norms[u], st.norms[v]
	if nu == 0 || nv == 0 {
		return 0
	}
	return sparse.Dot(st.d.Users[u], st.d.Users[v]) / (nu * nv)
}

type cosineBatcher struct {
	st      *cosineState
	scratch sparse.Scratch
}

func (b *cosineBatcher) ScoreInto(dst []float64, u uint32, cands []uint32) {
	st := b.st
	users := st.d.Users
	pu := users[u]
	nu := st.norms[u]
	if nu == 0 {
		for i := range cands {
			dst[i] = 0
		}
		return
	}
	if !fitsScratch(pu) {
		for i, v := range cands {
			dst[i] = st.pair(u, v)
		}
		return
	}
	// Binary pivots scatter weight 1 so the weighted gather covers the
	// mixed binary/weighted case; a fully binary pair reduces to the
	// count, which the gather's dot then equals exactly (sums of 1s).
	binaryPivot := pu.IsBinary()
	if binaryPivot {
		b.scratch.StampOnes(pu)
	} else {
		b.scratch.Stamp(pu)
	}
	for i, v := range cands {
		nv := st.norms[v]
		if nv == 0 {
			dst[i] = 0
			continue
		}
		pv := users[v]
		var dot float64
		if binaryPivot && pv.IsBinary() {
			// Match the pairwise fast path bit-for-bit: Dot on two
			// binary vectors is float64(CommonCount).
			dot = float64(b.scratch.CountCommon(pv))
		} else {
			dot, _ = b.scratch.DotCount(pv)
		}
		dst[i] = dot / (nu * nv)
	}
}

// PrepareBatch implements BatchMetric.
func (Cosine) PrepareBatch(d *dataset.Dataset) BatchFactory {
	st := newCosineState(d)
	return func() Batcher { return &cosineBatcher{st: st} }
}

// PrepareIncrementalBatch implements IncrementalBatch: the pairwise
// function, the kernels and refresh share one norm cache and re-read
// profiles through d, so appends and profile changes are observed after
// refresh(u).
func (Cosine) PrepareIncrementalBatch(d *dataset.Dataset) (Func, BatchFactory, func(uint32)) {
	st := newCosineState(d)
	factory := func() Batcher { return &cosineBatcher{st: st} }
	return st.pair, factory, st.refresh
}

// --- Count-only metrics (Jaccard, Overlap, Dice) ------------------------

// countBatcher gathers |u ∩ v| per candidate and finishes it through the
// metric's countForm — the shared kernel of the set-based metrics.
type countBatcher struct {
	d       *dataset.Dataset
	scratch sparse.Scratch
	form    countForm
	// pair is the metric's pairwise form, used when the pivot overflows
	// the scratch domain.
	pair Func
}

func (b *countBatcher) ScoreInto(dst []float64, u uint32, cands []uint32) {
	users := b.d.Users
	pu := users[u]
	if !fitsScratch(pu) {
		for i, v := range cands {
			dst[i] = b.pair(u, v)
		}
		return
	}
	b.scratch.Stamp(sparse.Vector{IDs: pu.IDs}) // count-only: weights irrelevant
	for i, v := range cands {
		dst[i] = b.form.of(b.scratch.CountCommon(users[v]), pu.Len(), users[v].Len())
	}
}

func (f countForm) prepareBatch(d *dataset.Dataset) BatchFactory {
	pair := f.prepare(d)
	return func() Batcher { return &countBatcher{d: d, form: f, pair: pair} }
}

// PrepareBatch implements BatchMetric.
func (Jaccard) PrepareBatch(d *dataset.Dataset) BatchFactory { return jaccardForm.prepareBatch(d) }

// PrepareIncrementalBatch implements IncrementalBatch; Jaccard keeps no
// per-user state, so refresh is free.
func (Jaccard) PrepareIncrementalBatch(d *dataset.Dataset) (Func, BatchFactory, func(uint32)) {
	fn, refresh := Jaccard{}.PrepareIncremental(d)
	return fn, Jaccard{}.PrepareBatch(d), refresh
}

// PrepareBatch implements BatchMetric.
func (Overlap) PrepareBatch(d *dataset.Dataset) BatchFactory { return overlapForm.prepareBatch(d) }

// PrepareIncrementalBatch implements IncrementalBatch.
func (Overlap) PrepareIncrementalBatch(d *dataset.Dataset) (Func, BatchFactory, func(uint32)) {
	fn, refresh := Overlap{}.PrepareIncremental(d)
	return fn, Overlap{}.PrepareBatch(d), refresh
}

// PrepareBatch implements BatchMetric.
func (Dice) PrepareBatch(d *dataset.Dataset) BatchFactory { return diceForm.prepareBatch(d) }

// PrepareIncrementalBatch implements IncrementalBatch.
func (Dice) PrepareIncrementalBatch(d *dataset.Dataset) (Func, BatchFactory, func(uint32)) {
	fn, refresh := Dice{}.PrepareIncremental(d)
	return fn, Dice{}.PrepareBatch(d), refresh
}

// --- Adamic–Adar --------------------------------------------------------

type adamicBatcher struct {
	d       *dataset.Dataset
	invLog  []float64
	scratch sparse.Scratch
	pair    Func
}

func (b *adamicBatcher) ScoreInto(dst []float64, u uint32, cands []uint32) {
	users := b.d.Users
	pu := users[u]
	if !fitsScratch(pu) {
		for i, v := range cands {
			dst[i] = b.pair(u, v)
		}
		return
	}
	// Scatter the pivot's items stamped with their 1/ln|IPi| term; the
	// gather then sums exactly the pairwise merge's Σ invLog[shared].
	if len(pu.IDs) == 0 {
		b.scratch.Begin(0)
	} else {
		b.scratch.Begin(int(pu.IDs[len(pu.IDs)-1]) + 1)
		for _, id := range pu.IDs {
			b.scratch.Set(id, b.invLog[id])
		}
	}
	for i, v := range cands {
		dst[i], _ = b.scratch.SumCommon(users[v])
	}
}

// PrepareBatch implements BatchMetric; like Prepare, it precomputes the
// per-item 1/ln|IPi| table (single-rater items stay 0, keeping Eq. (5)
// intact).
func (AdamicAdar) PrepareBatch(d *dataset.Dataset) BatchFactory {
	d.EnsureItemProfiles()
	invLog := invLogTable(d)
	pair := AdamicAdar{}.Prepare(d)
	return func() Batcher { return &adamicBatcher{d: d, invLog: invLog, pair: pair} }
}
