// Package similarity implements the item-based similarity metrics used to
// build KNN graphs, behind a uniform interface.
//
// All metrics here satisfy the two properties of the paper's Eq. (5) and
// (6): they are zero for disjoint profiles and non-negative for overlapping
// ones. These properties are what make KIFF's RCS pruning lossless
// (§III-D), and are covered by property-based tests.
//
// A metric is bound to a dataset once via Prepare, which lets it precompute
// per-user norms or per-item statistics; the returned Func is then a pure,
// concurrency-safe pairwise function. Every similarity evaluation performed
// by an algorithm flows through a Func wrapped with Counted (or a batch
// kernel wrapped with CountedBatch), giving the scan-rate metric of §IV-C
// for free.
//
// The pairwise Func is the reference implementation; the hot construction
// loops score through the one-vs-many kernels of batch.go (BatchMetric),
// and single-profile queries through ScoreProfile (profile.go). Both are
// property-tested bit-for-bit equal to it.
package similarity

import (
	"fmt"
	"math"
	"sync/atomic"

	"kiff/internal/dataset"
	"kiff/internal/sparse"
)

// Func computes the similarity between two users of the prepared dataset.
// Implementations must be safe for concurrent use.
type Func func(u, v uint32) float64

// Metric is a similarity measure over user profiles.
type Metric interface {
	// Name returns the metric's identifier (used in flags and tables).
	Name() string
	// Prepare binds the metric to a dataset and returns the pairwise
	// function. Prepare may precompute per-user or per-item state.
	Prepare(d *dataset.Dataset) Func
	// ScoreProfile fills dst[i] with the similarity between the pivot's
	// external profile and user cands[i] of the pivot's source; common[i]
	// must be their shared-item count |p ∩ cands[i]|, which the caller's
	// counting phase has at hand. len(dst) and len(common) must equal
	// len(cands). See profile.go.
	ScoreProfile(dst []float64, pv *Pivot, cands []uint32, common []int32)
}

// Incremental is an optional Metric extension for append-only mutating
// datasets (the incremental-maintenance path). PrepareIncremental binds
// the metric like Prepare, but the returned function stays valid across
// dataset mutations provided refresh(u) is called for every appended or
// profile-changed user before the next evaluation involving u — so a
// stream of mutations costs O(changed profiles), not one full O(|U|)
// re-preparation each. Unlike Prepare's result, the pair (fn, refresh)
// is not safe for concurrent use.
//
// Metrics with per-item precomputed state that a single mutation can
// invalidate globally (Adamic–Adar's 1/ln|IPi|) do not implement it;
// callers fall back to a full Prepare after each mutation batch.
type Incremental interface {
	Metric
	PrepareIncremental(d *dataset.Dataset) (fn Func, refresh func(u uint32))
}

// Counted wraps fn so every evaluation increments evals. The counter is
// shared across workers; one atomic add per evaluation is negligible next
// to the merge the evaluation itself performs.
func Counted(fn Func, evals *atomic.Int64) Func {
	return func(u, v uint32) float64 {
		evals.Add(1)
		return fn(u, v)
	}
}

// ByName returns the metric registered under name.
func ByName(name string) (Metric, error) {
	switch name {
	case "cosine":
		return Cosine{}, nil
	case "jaccard":
		return Jaccard{}, nil
	case "adamic-adar", "adamicadar":
		return AdamicAdar{}, nil
	case "overlap":
		return Overlap{}, nil
	case "dice":
		return Dice{}, nil
	default:
		return nil, fmt.Errorf("similarity: unknown metric %q (want cosine, jaccard, adamic-adar, overlap or dice)", name)
	}
}

// Names lists the registered metric names.
func Names() []string {
	return []string{"adamic-adar", "cosine", "dice", "jaccard", "overlap"}
}

// Cosine is the cosine similarity over rating dictionaries, the paper's
// default metric (§IV-D): dot(UPu, UPv) / (‖UPu‖·‖UPv‖). For binary
// profiles this reduces to |A∩B|/√(|A|·|B|).
type Cosine struct{}

// Name implements Metric.
func (Cosine) Name() string { return "cosine" }

// Prepare implements Metric; it precomputes every user's profile norm.
func (Cosine) Prepare(d *dataset.Dataset) Func {
	users := d.Users
	norms := make([]float64, len(users))
	for i, u := range users {
		norms[i] = sparse.Norm(u)
	}
	return func(u, v uint32) float64 {
		nu, nv := norms[u], norms[v]
		if nu == 0 || nv == 0 {
			return 0
		}
		return sparse.Dot(users[u], users[v]) / (nu * nv)
	}
}

// PrepareIncremental implements Incremental: the norm cache is grown (in
// a single step, even for ID jumps) and patched per refreshed user, and
// profiles are re-read through d so appends (which may reallocate
// d.Users) are observed. The state is shared with the batch kernels; see
// cosineState in batch.go.
func (Cosine) PrepareIncremental(d *dataset.Dataset) (Func, func(uint32)) {
	st := newCosineState(d)
	return st.pair, st.refresh
}

// Jaccard is Jaccard's coefficient |A∩B| / |A∪B| over the profile item
// sets (ratings are ignored; the set semantics is the classical form the
// paper cites).
type Jaccard struct{}

// Name implements Metric.
func (Jaccard) Name() string { return "jaccard" }

// Prepare implements Metric.
func (Jaccard) Prepare(d *dataset.Dataset) Func { return jaccardForm.prepare(d) }

// PrepareIncremental implements Incremental; Jaccard keeps no per-user
// state, so refreshing is free and only the profile re-read matters.
func (Jaccard) PrepareIncremental(d *dataset.Dataset) (Func, func(uint32)) {
	return jaccardForm.prepareIncremental(d)
}

// AdamicAdar is the Adamic–Adar coefficient Σ_{i∈A∩B} 1/ln|IPi|: shared
// rare items weigh more than shared popular ones. It is one of the three
// metrics the paper names when motivating the common-item observation
// (§II-A).
type AdamicAdar struct{}

// Name implements Metric.
func (AdamicAdar) Name() string { return "adamic-adar" }

// Prepare implements Metric; it precomputes 1/ln|IPi| per item.
func (AdamicAdar) Prepare(d *dataset.Dataset) Func {
	d.EnsureItemProfiles()
	users := d.Users
	invLog := invLogTable(d)
	return func(u, v uint32) float64 {
		var s float64
		a, b := users[u], users[v]
		i, j := 0, 0
		for i < len(a.IDs) && j < len(b.IDs) {
			ai, bj := a.IDs[i], b.IDs[j]
			switch {
			case ai == bj:
				s += invLog[ai]
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
}

// invLogDegree is an item's Adamic–Adar weight 1/ln|IPi| from its degree
// |IPi|. Items rated by a single user can never be shared between two
// users; weighting them 0 keeps Eq. (5) intact even if they were.
func invLogDegree(n int) float64 {
	if n < 2 {
		return 0
	}
	return 1 / math.Log(float64(n))
}

// invLogTable precomputes every item's invLogDegree.
func invLogTable(d *dataset.Dataset) []float64 {
	invLog := make([]float64, len(d.Items))
	for i, ip := range d.Items {
		invLog[i] = invLogDegree(len(ip))
	}
	return invLog
}

// Overlap is the raw common-item count |A∩B| — the coarse metric KIFF's
// counting phase uses implicitly. Exposed as a metric so the Fig 7
// experiment can rank candidates by it directly.
type Overlap struct{}

// Name implements Metric.
func (Overlap) Name() string { return "overlap" }

// Prepare implements Metric.
func (Overlap) Prepare(d *dataset.Dataset) Func { return overlapForm.prepare(d) }

// PrepareIncremental implements Incremental; Overlap is stateless.
func (Overlap) PrepareIncremental(d *dataset.Dataset) (Func, func(uint32)) {
	return overlapForm.prepareIncremental(d)
}

// Dice is the Sørensen–Dice coefficient 2|A∩B| / (|A|+|B|).
type Dice struct{}

// Name implements Metric.
func (Dice) Name() string { return "dice" }

// Prepare implements Metric.
func (Dice) Prepare(d *dataset.Dataset) Func { return diceForm.prepare(d) }

// PrepareIncremental implements Incremental; Dice is stateless.
func (Dice) PrepareIncremental(d *dataset.Dataset) (Func, func(uint32)) {
	return diceForm.prepareIncremental(d)
}

// countForm is the one definition of a set-based metric (Jaccard,
// Overlap, Dice): its value from the shared-item count |A∩B| and the two
// profile lengths. The pairwise functions, the batch kernels and the
// profile-pivot scorer all finish through it.
type countForm func(common, lenA, lenB int) float64

var (
	jaccardForm countForm = func(common, lenA, lenB int) float64 {
		return float64(common) / float64(lenA+lenB-common)
	}
	overlapForm countForm = func(common, _, _ int) float64 { return float64(common) }
	diceForm    countForm = func(common, lenA, lenB int) float64 {
		return 2 * float64(common) / float64(lenA+lenB)
	}
)

// of evaluates the form, scoring disjoint profiles 0 (Eq. 5).
func (f countForm) of(common, lenA, lenB int) float64 {
	if common == 0 {
		return 0
	}
	return f(common, lenA, lenB)
}

func (f countForm) prepare(d *dataset.Dataset) Func {
	users := d.Users
	return func(u, v uint32) float64 {
		a, b := users[u], users[v]
		return f.of(sparse.CommonCount(a, b), a.Len(), b.Len())
	}
}

// prepareIncremental re-reads profiles through d, so appends (which may
// reallocate d.Users) are observed; there is no per-user state to refresh.
func (f countForm) prepareIncremental(d *dataset.Dataset) (Func, func(uint32)) {
	return func(u, v uint32) float64 {
		a, b := d.Users[u], d.Users[v]
		return f.of(sparse.CommonCount(a, b), a.Len(), b.Len())
	}, func(uint32) {}
}
