package sparse

import (
	"math"
	"slices"
)

// GallopRatio is the length skew at which the pairwise kernels switch
// from the linear merge to a galloping (exponential-search) intersection:
// when one profile is at least this many times longer than the other, it
// is cheaper to binary-search the long side per element of the short side
// than to walk it. The profile-size distributions of the paper's datasets
// are heavy-tailed (Fig 4), so such skewed pairs are common whenever a
// hub user is involved.
const GallopRatio = 16

// CommonCount returns |a ∩ b|, the number of shared identifiers.
//
// This is the cheap coarse similarity at the heart of KIFF's counting phase
// (§II-A): it involves only integer comparisons, no floating point, and its
// value upper-bounds every overlap-based similarity metric. Heavily skewed
// pairs take the galloping path (see GallopRatio); the result is identical.
func CommonCount(a, b Vector) int {
	if len(a.IDs) > len(b.IDs) {
		a, b = b, a
	}
	if len(b.IDs) >= GallopRatio*len(a.IDs) {
		return commonCountGallop(a.IDs, b.IDs)
	}
	n := 0
	i, j := 0, 0
	for i < len(a.IDs) && j < len(b.IDs) {
		ai, bj := a.IDs[i], b.IDs[j]
		switch {
		case ai == bj:
			n++
			i++
			j++
		case ai < bj:
			i++
		default:
			j++
		}
	}
	return n
}

// commonCountGallop intersects a short sorted ID list against a much
// longer one by exponential search: for each element of the short side,
// gallop forward in the long side (doubling steps) to bracket it, then
// binary-search the bracket. Cost is O(|short|·log(|long|/|short|)) versus
// the merge's O(|short|+|long|).
func commonCountGallop(short, long []uint32) int {
	n := 0
	j := 0
	for _, id := range short {
		j += gallop(long[j:], id)
		if j >= len(long) {
			break
		}
		if long[j] == id {
			n++
			j++
		}
	}
	return n
}

// gallop returns the index of the first element of xs that is ≥ id,
// probing at doubling offsets before binary-searching the final bracket.
func gallop(xs []uint32, id uint32) int {
	if len(xs) == 0 || xs[0] >= id {
		return 0
	}
	// Invariant: xs[lo] < id. Double the probe distance until it
	// overshoots (or the slice ends), then binary search (lo, hi].
	lo, step := 0, 1
	for {
		hi := lo + step
		if hi >= len(xs) {
			hi = len(xs)
			return lo + 1 + search(xs[lo+1:hi], id)
		}
		if xs[hi] >= id {
			return lo + 1 + search(xs[lo+1:hi], id)
		}
		lo = hi
		step <<= 1
	}
}

// search is sort.SearchInts over uint32s: the first index with xs[i] ≥ id.
func search(xs []uint32, id uint32) int {
	lo, hi := 0, len(xs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if xs[mid] < id {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Dot returns the dot product Σ_i a_i·b_i over the shared identifiers.
// For two binary vectors it equals CommonCount. Skewed pairs gallop like
// CommonCount; the shared IDs are visited in the same ascending order
// either way, so the floating-point result is bit-identical.
func Dot(a, b Vector) float64 {
	if a.IsBinary() && b.IsBinary() {
		return float64(CommonCount(a, b))
	}
	if len(a.IDs) > len(b.IDs) {
		a, b = b, a
	}
	if len(b.IDs) >= GallopRatio*len(a.IDs) {
		return dotGallop(a, b)
	}
	var s float64
	i, j := 0, 0
	for i < len(a.IDs) && j < len(b.IDs) {
		ai, bj := a.IDs[i], b.IDs[j]
		switch {
		case ai == bj:
			s += a.Weight(i) * b.Weight(j)
			i++
			j++
		case ai < bj:
			i++
		default:
			j++
		}
	}
	return s
}

// dotGallop is Dot's galloping path: a is the short side.
func dotGallop(a, b Vector) float64 {
	var s float64
	j := 0
	for i, id := range a.IDs {
		j += gallop(b.IDs[j:], id)
		if j >= len(b.IDs) {
			break
		}
		if b.IDs[j] == id {
			s += a.Weight(i) * b.Weight(j)
			j++
		}
	}
	return s
}

// Norm returns the Euclidean norm ‖a‖₂. For a binary vector this is
// sqrt(|a|).
func Norm(a Vector) float64 {
	if a.IsBinary() {
		return math.Sqrt(float64(len(a.IDs)))
	}
	var s float64
	for _, w := range a.Weights {
		s += w * w
	}
	return math.Sqrt(s)
}

// UnionCount returns |a ∪ b|.
func UnionCount(a, b Vector) int {
	return len(a.IDs) + len(b.IDs) - CommonCount(a, b)
}

// Intersect returns the identifiers common to a and b, in ascending order.
// The result is appended to dst to allow buffer reuse.
func Intersect(dst []uint32, a, b Vector) []uint32 {
	i, j := 0, 0
	for i < len(a.IDs) && j < len(b.IDs) {
		ai, bj := a.IDs[i], b.IDs[j]
		switch {
		case ai == bj:
			dst = append(dst, ai)
			i++
			j++
		case ai < bj:
			i++
		default:
			j++
		}
	}
	return dst
}

// FromMap builds a well-formed Vector from an id→weight map. If binary is
// true the weights are discarded and a binary vector is produced.
func FromMap(m map[uint32]float64, binary bool) Vector {
	ids := make([]uint32, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	slices.Sort(ids)
	v := Vector{IDs: ids}
	if !binary {
		v.Weights = make([]float64, len(ids))
		for i, id := range ids {
			v.Weights[i] = m[id]
		}
	}
	return v
}
