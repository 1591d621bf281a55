// Profile-pivot scoring: the query side of the batch kernels. A query
// profile is not a user of the dataset, so the prepared bindings (norm
// caches, 1/ln|IPi| tables) cannot key on it, and a frozen snapshot view
// must not pay an O(|U|) preparation per publication either. ScoreProfile
// therefore scores one external pivot against many indexed users straight
// from a Source, through the same formulas as the pairwise functions and
// the batch kernels:
//
//   - the set-based metrics (and cosine on binary pairs) take |p ∩ v|
//     from the caller's counting phase, which has just computed it, and
//     finish in O(1) per candidate;
//   - everything else scatters the pivot once into a sparse.Scratch and
//     gathers per candidate, visiting shared items in ascending order, so
//     the values are bit-for-bit those of the pairwise merge.
package similarity

import (
	"slices"

	"kiff/internal/sparse"
)

// Source is the read surface of profile-pivot scoring: user profiles and
// the item-profile inverted index. *dataset.Dataset (with item profiles
// built) and the frozen *dataset.View both satisfy it.
type Source interface {
	NumItems() int
	User(u uint32) sparse.Vector
	Item(i uint32) []uint32
}

// Pivot is an external profile bound to a Source for ScoreProfile. It owns
// the item accumulator of the scatter/gather forms, so it must stay
// confined to one goroutine; rebinding reuses that memory across queries.
type Pivot struct {
	src Source
	p   sparse.Vector
	// scatter is the prefix of p whose item IDs exist in src. Only it is
	// scattered: an item no user holds cannot be shared, and a request ID
	// such as 1<<31 must not size the accumulator. Norms and lengths
	// still use all of p.
	scatter sparse.Vector
	items   sparse.Scratch
}

// Bind points the pivot at profile p, which must be valid, over src.
func (pv *Pivot) Bind(src Source, p sparse.Vector) {
	n, _ := slices.BinarySearch(p.IDs, uint32(src.NumItems()))
	pv.src, pv.p = src, p
	pv.scatter = sparse.Vector{IDs: p.IDs[:n]}
	if p.Weights != nil {
		pv.scatter.Weights = p.Weights[:n]
	}
}

// Release drops the pivot's references to its profile and source, so a
// pooled pivot does not keep a retired snapshot alive.
func (pv *Pivot) Release() {
	pv.src, pv.p, pv.scatter = nil, sparse.Vector{}, sparse.Vector{}
}

// Indexed returns the prefix of the pivot's item IDs that exist in its
// source: the items a counting phase over the source can bin.
func (pv *Pivot) Indexed() []uint32 { return pv.scatter.IDs }

// ScoreProfile implements Metric. A binary pair's dot product is the
// shared count (Dot returns exactly float64(CommonCount) for it). Any
// other pair gathers over the pivot's scattered weights — scattered
// lazily, so a binary workload never touches the accumulator — except a
// candidate at least GallopRatio times longer than the scattered pivot,
// which Dot gallops through in O(|p|·log) instead of walking all of it.
// Both paths visit shared items in ascending order, so they agree bit for
// bit.
func (Cosine) ScoreProfile(dst []float64, pv *Pivot, cands []uint32, common []int32) {
	nu := sparse.Norm(pv.p)
	binaryPivot := pv.p.IsBinary()
	scattered := false
	for i, v := range cands {
		pu := pv.src.User(v)
		nv := sparse.Norm(pu)
		if nu == 0 || nv == 0 {
			dst[i] = 0
			continue
		}
		var dot float64
		if binaryPivot && pu.IsBinary() {
			dot = float64(common[i])
		} else if len(pu.IDs) >= sparse.GallopRatio*len(pv.scatter.IDs) {
			dot = sparse.Dot(pv.p, pu)
		} else {
			if !scattered {
				if binaryPivot {
					pv.items.StampOnes(pv.scatter)
				} else {
					pv.items.Stamp(pv.scatter)
				}
				scattered = true
			}
			dot, _ = pv.items.DotCount(pu)
		}
		dst[i] = dot / (nu * nv)
	}
}

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

// ScoreProfile implements Metric: the pivot's items are scattered with
// their 1/ln|IPi| weight, read from the source's item rows, and each
// candidate sums the weights it shares — the adamicBatcher gather.
func (AdamicAdar) ScoreProfile(dst []float64, pv *Pivot, cands []uint32, _ []int32) {
	ids := pv.scatter.IDs
	if len(ids) == 0 {
		pv.items.Begin(0)
	} else {
		pv.items.Begin(int(ids[len(ids)-1]) + 1)
		for _, id := range ids {
			pv.items.Set(id, invLogDegree(len(pv.src.Item(id))))
		}
	}
	for i, v := range cands {
		dst[i], _ = pv.items.SumCommon(pv.src.User(v))
	}
}
