package core

import (
	"slices"

	"kiff/internal/dataset"
	"kiff/internal/similarity"
	"kiff/internal/sparse"
)

// Walker is KIFF's counting phase (§II-B) for one profile at a time, with
// scoring moved into the count: it bins the profile into the item
// profiles, visiting exactly the (item, rater) pairs the profile shares
// with each candidate, sums on the way what the metric asks for
// (similarity.Metric.Walk), and finishes every candidate's score in O(1)
// (similarity.Metric.ScoreProfile). With every candidate scored the
// answer is exact by Eq. (5)/(6), the γ = ∞ case of §III-D.
//
// One loop serves three callers: Index.Query walks an external profile;
// Row walks a user of the dataset, which is how the serving graph is
// cold-built (one private row per user) and maintained (a new or changed
// user is walked once and offered to every candidate); CoRaters walks a
// user's raw item rows for the users a profile change makes stale.
//
// A Walker is one goroutine's reusable memory; the zero value is ready.
// The slices a walk returns stay valid until its next walk.
type Walker struct {
	// slots counts candidates over the user domain. A slot belongs to the
	// current walk iff its epoch equals epoch, so starting a walk is an
	// increment, not a clear.
	slots []countSlot
	// sums holds the walk's per-candidate sums beside the slots, valid
	// where the slot is current. A separate array keeps the count-only
	// walk's slots at 8 bytes.
	sums []float64
	// marks stamps, with the current epoch, the users that share an item
	// with a row's user that both rate at least the row's minRating.
	marks   []uint32
	epoch   uint32
	touched []uint32 // users sharing an item with the profile, in discovery order
	cands   []uint32 // a row's candidates
	keys    []uint64 // rcs rank keys, for a query's budget cut
	common  []int32  // shared-item counts aligned with the scored candidates
	sims    []float64
	pivot   similarity.Pivot
}

type countSlot struct {
	epoch uint32
	count int32
}

// Row scores user u of d against its candidates and returns them with
// their similarities under metric, in discovery order: every other user
// sharing an item with u or, with minRating > 0, sharing an item that
// both rate at least minRating (the §VII filter; the score still sums
// over every shared item). The third result lists every user sharing
// any item with u, u included, whatever minRating: the users whose
// similarity to u a change of u's profile can have moved.
//
// The similarities are bit for bit those of metric.Prepare(d).Pair, read
// off d as it is now, so Adamic–Adar weighs each item by its live
// |IPi|.
func (w *Walker) Row(d *dataset.Dataset, metric similarity.Metric, u uint32, minRating float64) (cands []uint32, sims []float64, coRaters []uint32) {
	p := d.User(u)
	walk := w.pivot.Bind(d, p, metric)
	defer w.pivot.Release()
	w.count(d, w.pivot.Indexed(), walk)
	if minRating > 0 {
		w.mark(d, p, minRating)
	}
	cands, common := w.cands[:0], w.common[:0]
	for _, v := range w.touched {
		if v == u || minRating > 0 && w.marks[v] != w.epoch {
			continue
		}
		cands = append(cands, v)
		common = append(common, w.slots[v].count)
	}
	w.cands, w.common = cands, common
	return cands, w.score(metric, walk, cands, common), w.touched
}

// CoRaters returns every user sharing an item with user u of d, u
// included: Row's third result, from the count-only walk.
func (w *Walker) CoRaters(d *dataset.Dataset, u uint32) []uint32 {
	w.count(d, d.User(u).IDs, similarity.Walk{})
	return w.touched
}

// count is the counting phase for one profile: it bins the items into
// src's item profiles, leaving every user sharing at least one of them in
// w.touched with its shared-item count in w.slots and, unless the walk
// only counts, its sum in w.sums. items ascend, so each candidate's sum
// adds its terms in ascending item order, starting at +0 — the order of
// the pairwise merge.
func (w *Walker) count(src profileSource, items []uint32, walk similarity.Walk) {
	if n := src.NumUsers(); n > len(w.slots) {
		// Geometric growth: a population that creeps up by one insert at
		// a time must not reallocate per walk. New slots carry epoch 0,
		// which is never current.
		grown := make([]countSlot, max(n, 2*len(w.slots)))
		copy(grown, w.slots)
		w.slots = grown
	}
	if walk.Terms != nil && len(w.sums) < len(w.slots) {
		w.sums = make([]float64, len(w.slots))
	}
	w.epoch++
	if w.epoch == 0 { // wrapped: stale stamps could collide; hard-reset
		clear(w.slots)
		clear(w.marks)
		w.epoch = 1
	}
	ep, slots, sums, touched := w.epoch, w.slots, w.sums, w.touched[:0]
	if walk.Terms == nil {
		for _, it := range items {
			for _, r := range src.Raters(it) {
				s := &slots[r.User]
				if s.epoch != ep {
					*s = countSlot{epoch: ep, count: 1}
					touched = append(touched, r.User)
				} else {
					s.count++
				}
			}
		}
	} else {
		for j, it := range items {
			t := walk.Terms[j]
			for _, r := range src.Raters(it) {
				s := &slots[r.User]
				if s.epoch != ep {
					*s = countSlot{epoch: ep, count: 1}
					sums[r.User] = 0
					touched = append(touched, r.User)
				} else {
					s.count++
				}
				if walk.Rated {
					sums[r.User] += t * r.Rating()
				} else {
					sums[r.User] += t
				}
			}
		}
	}
	w.touched = touched
}

// mark stamps every user that rates at least min an item p rates at least
// min: a second pass over only the items that pass the threshold, since
// the count above must still visit every shared item for the score.
func (w *Walker) mark(src profileSource, p sparse.Vector, min float64) {
	if len(w.marks) < len(w.slots) {
		// Only this pass writes marks, so nothing current is lost.
		w.marks = make([]uint32, len(w.slots))
	}
	for j, it := range p.IDs {
		if p.Weight(j) < min {
			continue
		}
		for _, r := range src.Raters(it) {
			if r.Rating() >= min {
				w.marks[r.User] = w.epoch
			}
		}
	}
}

// score finishes the similarity of each candidate, whose shared-item
// count is common[i], from what the walk left.
func (w *Walker) score(metric similarity.Metric, walk similarity.Walk, cands []uint32, common []int32) []float64 {
	sims := slices.Grow(w.sims[:0], len(cands))[:len(cands)]
	w.sims = sims
	if walk.Terms != nil {
		for i, v := range cands {
			sims[i] = w.sums[v]
		}
	}
	metric.ScoreProfile(sims, &w.pivot, cands, common)
	return sims
}
