// Profile-pivot scoring: the query side of the batch kernels. A query
// profile is not a user of the dataset, so the prepared bindings (norm
// caches, 1/ln|IPi| tables) cannot key on it, and a frozen snapshot view
// must not pay an O(|U|) preparation per publication either. Scoring
// therefore rides on the caller's counting walk, which visits exactly
// the (item, rater) pairs the pivot shares with each candidate: the
// metric states what the walk sums per candidate beside the shared-item
// count (Metric.Walk), and ScoreProfile finishes every metric from the
// count, that sum and the source's cached lengths and norms, in O(1) per
// candidate:
//
//   - the set-based metrics, and cosine over a binary pivot and data
//     whose every rating is 1, need the count alone;
//   - weighted cosine sums w_p(i)·w_v(i), the rating read from the item
//     row;
//   - Adamic–Adar sums 1/ln|IPi|.
//
// The walk visits the pivot's items in ascending ID order and starts
// each sum at +0, so every sum adds the same terms in the same order as
// the pairwise merge (sparse.Dot, the Adamic–Adar pair) and the values
// are bit-for-bit those of the pairwise functions.
package similarity

import (
	"slices"

	"kiff/internal/dataset"
	"kiff/internal/sparse"
)

// Source is the read surface of profile-pivot scoring: user profiles and
// their cached norms, the item-profile inverted index with its ratings,
// and whether any indexed rating is ≠ 1. *dataset.Dataset (with item
// profiles built) and the frozen *dataset.View both satisfy it.
type Source interface {
	NumItems() int
	User(u uint32) sparse.Vector
	Norm(u uint32) float64
	Raters(i uint32) []dataset.Rater
	Weighted() bool
}

// Walk states what a counting walk over a pivot's indexed items sums per
// candidate v beside |p ∩ v|: for the shared items i_j, in ascending ID
// order and starting at +0, Σ Terms[j]·w_v(i_j) when Rated and Σ Terms[j]
// otherwise. Terms aligns with Pivot.Indexed; nil Terms means the walk
// only counts.
type Walk struct {
	Terms []float64
	Rated bool
}

// Pivot is an external profile bound to a Source and a metric for
// ScoreProfile. It owns the metric's term buffer, so it must stay
// confined to one goroutine; rebinding reuses that memory across queries.
type Pivot struct {
	src Source
	p   sparse.Vector
	// indexed is the prefix of p whose item IDs exist in src: the items a
	// counting walk can bin. Norms and lengths still use all of p.
	indexed sparse.Vector
	walk    Walk
	terms   []float64
}

// Bind points the pivot at profile p, which must be valid, over src, and
// returns what m needs the counting walk over Indexed to sum.
func (pv *Pivot) Bind(src Source, p sparse.Vector, m Metric) Walk {
	n, _ := slices.BinarySearch(p.IDs, uint32(src.NumItems()))
	pv.src, pv.p = src, p
	pv.indexed = sparse.Vector{IDs: p.IDs[:n]}
	if p.Weights != nil {
		pv.indexed.Weights = p.Weights[:n]
	}
	pv.walk = m.Walk(pv)
	return pv.walk
}

// Release drops the pivot's references to its profile and source, so a
// pooled pivot does not keep a retired snapshot alive.
func (pv *Pivot) Release() {
	pv.src, pv.p, pv.indexed, pv.walk = nil, sparse.Vector{}, sparse.Vector{}, Walk{}
}

// Indexed returns the prefix of the pivot's item IDs that exist in its
// source: the items a counting phase over the source can bin.
func (pv *Pivot) Indexed() []uint32 { return pv.indexed.IDs }

// termBuffer returns the pivot's reusable term slice, one per indexed
// item.
func (pv *Pivot) termBuffer() []float64 {
	pv.terms = slices.Grow(pv.terms[:0], len(pv.indexed.IDs))[:len(pv.indexed.IDs)]
	return pv.terms
}

// Walk implements Metric. A binary pivot over data whose every rating is
// 1 needs only the count: its dot product with any candidate is |p ∩ v|
// (Dot returns exactly float64(CommonCount) for a binary pair). Otherwise
// the walk sums the products of the pivot's weights (1 for a binary
// pivot) and the candidates' ratings.
func (Cosine) Walk(pv *Pivot) Walk {
	if pv.p.IsBinary() && !pv.src.Weighted() {
		return Walk{}
	}
	terms := pv.indexed.Weights
	if terms == nil {
		terms = pv.termBuffer()
		for j := range terms {
			terms[j] = 1
		}
	}
	return Walk{Terms: terms, Rated: true}
}

// ScoreProfile implements Metric: the walk's dot product (or the count)
// over the pivot's norm and the candidate's cached norm.
func (Cosine) ScoreProfile(dst []float64, pv *Pivot, cands []uint32, common []int32) {
	nu := sparse.Norm(pv.p)
	counted := pv.walk.Terms == nil
	for i, v := range cands {
		nv := pv.src.Norm(v)
		if nu == 0 || nv == 0 {
			dst[i] = 0
			continue
		}
		dot := dst[i]
		if counted {
			dot = float64(common[i])
		}
		dst[i] = dot / (nu * nv)
	}
}

// Walk implements Metric: the count forms sum nothing.
func (Jaccard) Walk(*Pivot) Walk { return Walk{} }

// Walk implements Metric: the count forms sum nothing.
func (Overlap) Walk(*Pivot) Walk { return Walk{} }

// Walk implements Metric: the count forms sum nothing.
func (Dice) Walk(*Pivot) Walk { return Walk{} }

// ScoreProfile implements Metric from the counted overlaps alone.
func (Jaccard) ScoreProfile(dst []float64, pv *Pivot, cands []uint32, common []int32) {
	jaccardForm.scoreProfile(dst, pv, cands, common)
}

// ScoreProfile implements Metric from the counted overlaps alone.
func (Overlap) ScoreProfile(dst []float64, pv *Pivot, cands []uint32, common []int32) {
	overlapForm.scoreProfile(dst, pv, cands, common)
}

// ScoreProfile implements Metric from the counted overlaps alone.
func (Dice) ScoreProfile(dst []float64, pv *Pivot, cands []uint32, common []int32) {
	diceForm.scoreProfile(dst, pv, cands, common)
}

func (f countForm) scoreProfile(dst []float64, pv *Pivot, cands []uint32, common []int32) {
	lenP := pv.p.Len()
	for i, v := range cands {
		dst[i] = f.of(int(common[i]), lenP, pv.src.User(v).Len())
	}
}

// Walk implements Metric: the walk sums each shared item's 1/ln|IPi|,
// read from the length of the source's item row.
func (AdamicAdar) Walk(pv *Pivot) Walk {
	terms := pv.termBuffer()
	for j, id := range pv.indexed.IDs {
		terms[j] = invLogDegree(len(pv.src.Raters(id)))
	}
	return Walk{Terms: terms}
}

// ScoreProfile implements Metric: the walk's sum is the score.
func (AdamicAdar) ScoreProfile([]float64, *Pivot, []uint32, []int32) {}
