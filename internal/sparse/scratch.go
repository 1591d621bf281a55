package sparse

import "math"

// Scratch is an epoch-stamped dense accumulator over an ID space, the
// backing store of the one-vs-many similarity kernels (the Batch of a
// similarity.Binding). A pivot profile is scattered once — each of its IDs
// stamped with the current epoch and, optionally, a weight — and every
// candidate is then scored with a single gather over the candidate's own
// profile: an ID is shared iff its stamp matches the current epoch. This
// turns the O(|u|+|v|) two-pointer merge per pair into O(|u|) once per
// pivot plus O(|v|) per candidate, with one predictable branch per
// element instead of the merge's data-dependent three-way branch.
//
// Epoch stamping makes re-use free: Begin starts a new epoch instead of
// clearing the arrays, so scoring a new pivot costs only the scatter.
// A Scratch is single-goroutine scratch memory; batch phases allocate one
// per worker.
type Scratch struct {
	epoch   []uint32
	weights []float64
	cur     uint32
}

// Begin starts a new epoch and grows the stamp domain to cover IDs in
// [0, domain). Previously stamped entries become stale wholesale; no
// clearing happens (epoch wrap-around excepted, every ~4 billion pivots).
// Growth is geometric (at least doubling), so a stream of pivots whose
// max ID creeps upward costs amortized O(domain) copying, not a
// reallocation per pivot.
func (s *Scratch) Begin(domain int) {
	if domain > len(s.epoch) {
		if double := 2 * len(s.epoch); domain < double {
			domain = double
		}
		grown := make([]uint32, domain)
		copy(grown, s.epoch)
		s.epoch = grown
	}
	s.cur++
	if s.cur == 0 { // wrapped: stale stamps could collide; hard-reset
		clear(s.epoch)
		clear(s.weights)
		s.cur = 1
	}
}

// Domain returns the current stamp domain (the capacity Begin ensured).
func (s *Scratch) Domain() int { return len(s.epoch) }

// Mark stamps id into the current epoch without a weight (count-only
// gathers). id must be < the domain passed to Begin.
func (s *Scratch) Mark(id uint32) { s.epoch[id] = s.cur }

// Set stamps id into the current epoch carrying weight w. id must be <
// the domain passed to Begin.
func (s *Scratch) Set(id uint32, w float64) {
	if len(s.weights) < len(s.epoch) {
		grown := make([]float64, len(s.epoch))
		copy(grown, s.weights)
		s.weights = grown
	}
	s.epoch[id] = s.cur
	s.weights[id] = w
}

// Stamp begins a new epoch sized to v's largest ID and scatters v's
// profile: every ID marked, with its weight when v is weighted. It is
// the standard pivot scatter of the similarity kernels.
func (s *Scratch) Stamp(v Vector) {
	if len(v.IDs) == 0 {
		s.Begin(0)
		return
	}
	s.Begin(int(v.IDs[len(v.IDs)-1]) + 1)
	if v.Weights == nil {
		for _, id := range v.IDs {
			s.epoch[id] = s.cur
		}
		return
	}
	if len(s.weights) < len(s.epoch) {
		grown := make([]float64, len(s.epoch))
		copy(grown, s.weights)
		s.weights = grown
	}
	for i, id := range v.IDs {
		s.epoch[id] = s.cur
		s.weights[id] = v.Weights[i]
	}
}

// CountCommon gathers |pivot ∩ v|: the number of v's IDs stamped in the
// current epoch. IDs at or beyond the domain cannot be stamped and are
// skipped.
func (s *Scratch) CountCommon(v Vector) int {
	ep, cur := s.epoch, s.cur
	n := 0
	for _, id := range v.IDs {
		if int(id) < len(ep) && ep[id] == cur {
			n++
		}
	}
	return n
}

// DotCount gathers the dot product Σ w_pivot(i)·w_v(i) over the shared
// IDs along with the shared count. The shared IDs are visited in
// ascending order (v's profile order), matching the pairwise merge's
// accumulation order, so the result is bit-identical to Dot. The pivot
// must have been scattered with weights (Stamp of a weighted vector, or
// Set); a binary pivot should be stamped with weight 1 via StampOnes.
func (s *Scratch) DotCount(v Vector) (dot float64, common int) {
	ep, cur := s.epoch, s.cur
	w := s.weights
	if v.Weights == nil {
		for _, id := range v.IDs {
			if int(id) < len(ep) && ep[id] == cur {
				dot += w[id]
				common++
			}
		}
		return dot, common
	}
	for i, id := range v.IDs {
		if int(id) < len(ep) && ep[id] == cur {
			dot += w[id] * v.Weights[i]
			common++
		}
	}
	return dot, common
}

// StampOnes begins a new epoch and scatters v's IDs with weight 1
// regardless of v's own weights — the pivot scatter for dot products
// where the pivot side is binary.
func (s *Scratch) StampOnes(v Vector) {
	if len(v.IDs) == 0 {
		s.Begin(0)
		return
	}
	s.Begin(int(v.IDs[len(v.IDs)-1]) + 1)
	if len(s.weights) < len(s.epoch) {
		grown := make([]float64, len(s.epoch))
		copy(grown, s.weights)
		s.weights = grown
	}
	for _, id := range v.IDs {
		s.epoch[id] = s.cur
		s.weights[id] = 1
	}
}

// SumCommon gathers Σ w_pivot(i) over the shared IDs along with the
// shared count, ignoring v's weights — the gather shape of Adamic–Adar,
// where the stamped weight is the item's 1/ln|IPi| term.
func (s *Scratch) SumCommon(v Vector) (sum float64, common int) {
	ep, cur := s.epoch, s.cur
	w := s.weights
	for _, id := range v.IDs {
		if int(id) < len(ep) && ep[id] == cur {
			sum += w[id]
			common++
		}
	}
	return sum, common
}

// forceWrap is a test hook: it puts the epoch counter on the verge of
// wrap-around so the next Begin exercises the hard reset.
func (s *Scratch) forceWrap() { s.cur = math.MaxUint32 }
