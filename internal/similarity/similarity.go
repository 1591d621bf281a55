// Package similarity implements the item-based similarity metrics used to
// build KNN graphs, behind a uniform interface.
//
// All metrics here satisfy the two properties of the paper's Eq. (5) and
// (6): they are zero for disjoint profiles and non-negative for overlapping
// ones. These properties are what make KIFF's RCS pruning lossless
// (§III-D), and are covered by property-based tests.
//
// A metric is bound to a dataset once, via Prepare, which precomputes its
// per-user or per-item state (cosine's norms, Adamic–Adar's 1/ln|IPi|
// table; nothing for the count-based metrics). The returned Binding
// serves every scoring form over that one state: the pairwise reference
// Pair, the one-vs-many kernels of batch.go (Batch), and Refresh, which
// keeps the state exact as the dataset grows. Every similarity
// evaluation performed by an algorithm flows through a Pair wrapped with
// Counted or a kernel wrapped with CountedBatch, giving the scan-rate
// metric of §IV-C for free.
//
// Pair is the reference implementation; the hot construction loops score
// through the kernels, and single-profile queries through ScoreProfile
// (profile.go). Both are property-tested bit-for-bit equal to it.
package similarity

import (
	"fmt"
	"math"
	"sync/atomic"

	"kiff/internal/dataset"
	"kiff/internal/sparse"
)

// Func computes the similarity between two users of the bound dataset.
type Func func(u, v uint32) float64

// Binding is a metric bound to one dataset: three views of one prepared
// state. Pair and the kernels Batch mints read profiles through the
// dataset on every call, so they observe appended users and changed
// profiles once Refresh has run for them. They are safe for concurrent
// use while nothing mutates the dataset (the engine's build workers); a
// mutating owner (the Maintainer) uses them from its single writer.
type Binding struct {
	// Pair is the pairwise reference function.
	Pair Func
	// Batch mints one-vs-many kernels, each bit-for-bit equal to Pair.
	Batch BatchFactory
	// Refresh re-derives the state after user u was appended or its
	// profile changed, and must run before the next evaluation that
	// involves u or one of u's items.
	Refresh func(u uint32)
}

// Metric is a similarity measure over user profiles.
type Metric interface {
	// Name returns the metric's identifier (used in flags and tables).
	Name() string
	// Prepare binds the metric to a dataset, precomputing its per-user
	// or per-item state once.
	Prepare(d *dataset.Dataset) Binding
	// ScoreProfile fills dst[i] with the similarity between the pivot's
	// external profile and user cands[i] of the pivot's source; common[i]
	// must be their shared-item count |p ∩ cands[i]|, which the caller's
	// counting phase has at hand. len(dst) and len(common) must equal
	// len(cands). See profile.go.
	ScoreProfile(dst []float64, pv *Pivot, cands []uint32, common []int32)
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
func (Cosine) Prepare(d *dataset.Dataset) Binding {
	st := &cosineState{d: d, norms: make([]float64, len(d.Users))}
	for i, u := range d.Users {
		st.norms[i] = sparse.Norm(u)
	}
	return Binding{
		Pair:    st.pair,
		Batch:   func() Batcher { return &cosineBatcher{st: st} },
		Refresh: st.refresh,
	}
}

// cosineState is cosine's binding: the profile source and the norm
// cache.
type cosineState struct {
	d     *dataset.Dataset
	norms []float64
}

// refresh re-derives u's cached norm, growing the cache in one step for
// appended users (even past an ID jump).
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

// Jaccard is Jaccard's coefficient |A∩B| / |A∪B| over the profile item
// sets (ratings are ignored; the set semantics is the classical form the
// paper cites).
type Jaccard struct{}

// Name implements Metric.
func (Jaccard) Name() string { return "jaccard" }

// Prepare implements Metric.
func (Jaccard) Prepare(d *dataset.Dataset) Binding { return jaccardForm.bind(d) }

// AdamicAdar is the Adamic–Adar coefficient Σ_{i∈A∩B} 1/ln|IPi|: shared
// rare items weigh more than shared popular ones. It is one of the three
// metrics the paper names when motivating the common-item observation
// (§II-A).
type AdamicAdar struct{}

// Name implements Metric.
func (AdamicAdar) Name() string { return "adamic-adar" }

// Prepare implements Metric; it precomputes 1/ln|IPi| per item.
func (AdamicAdar) Prepare(d *dataset.Dataset) Binding {
	d.EnsureItemProfiles()
	st := &adamicState{d: d, invLog: make([]float64, len(d.Items))}
	for i, ip := range d.Items {
		st.invLog[i] = invLogDegree(len(ip))
	}
	return Binding{
		Pair:    st.pair,
		Batch:   func() Batcher { return &adamicBatcher{st: st} },
		Refresh: st.refresh,
	}
}

// adamicState is Adamic–Adar's binding: the profile source and the
// per-item weight table. Readers load invLog through the state on every
// call, because refresh may reallocate it.
type adamicState struct {
	d      *dataset.Dataset
	invLog []float64
}

// refresh re-derives the weights of u's items. An item's degree |IPi|
// only changes when a user gains it — through AddUser, or AddRating of an
// item the user did not hold — and that user is the one being refreshed,
// so patching its items (after growing the table to the item space; new
// items nobody else holds weigh 0) leaves exactly the table a fresh
// Prepare would build.
func (st *adamicState) refresh(u uint32) {
	if n := st.d.NumItems(); n > len(st.invLog) {
		st.invLog = append(st.invLog, make([]float64, n-len(st.invLog))...)
	}
	for _, i := range st.d.Users[u].IDs {
		st.invLog[i] = invLogDegree(len(st.d.Items[i]))
	}
}

func (st *adamicState) pair(u, v uint32) float64 {
	var s float64
	a, b := st.d.Users[u], st.d.Users[v]
	invLog := st.invLog
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

// invLogDegree is an item's Adamic–Adar weight 1/ln|IPi| from its degree
// |IPi|. Items rated by a single user can never be shared between two
// users; weighting them 0 keeps Eq. (5) intact even if they were.
func invLogDegree(n int) float64 {
	if n < 2 {
		return 0
	}
	return 1 / math.Log(float64(n))
}

// Overlap is the raw common-item count |A∩B| — the coarse metric KIFF's
// counting phase uses implicitly. Exposed as a metric so the Fig 7
// experiment can rank candidates by it directly.
type Overlap struct{}

// Name implements Metric.
func (Overlap) Name() string { return "overlap" }

// Prepare implements Metric.
func (Overlap) Prepare(d *dataset.Dataset) Binding { return overlapForm.bind(d) }

// Dice is the Sørensen–Dice coefficient 2|A∩B| / (|A|+|B|).
type Dice struct{}

// Name implements Metric.
func (Dice) Name() string { return "dice" }

// Prepare implements Metric.
func (Dice) Prepare(d *dataset.Dataset) Binding { return diceForm.bind(d) }

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

// bind is the count forms' Prepare. They keep no state, so Refresh has
// nothing to do: re-reading profiles through d is all an append needs.
func (f countForm) bind(d *dataset.Dataset) Binding {
	pair := func(u, v uint32) float64 {
		a, b := d.Users[u], d.Users[v]
		return f.of(sparse.CommonCount(a, b), a.Len(), b.Len())
	}
	return Binding{
		Pair:    pair,
		Batch:   func() Batcher { return &countBatcher{d: d, form: f, pair: pair} },
		Refresh: func(uint32) {},
	}
}
