// Package similarity implements the item-based similarity metrics used to
// build KNN graphs, behind a uniform interface.
//
// All metrics here satisfy the two properties of the paper's Eq. (5) and
// (6): they are zero for disjoint profiles and non-negative for overlapping
// ones. These properties are what make KIFF's RCS pruning lossless
// (§III-D), and are covered by property-based tests.
//
// A metric is bound to a dataset once, via Prepare, which precomputes its
// per-item state (Adamic–Adar's 1/ln|IPi| table; cosine reads the
// dataset's own norm cache, and the count-based metrics need nothing).
// The returned Binding serves both pairwise scoring forms over that one
// state: the reference Pair and the one-vs-many kernels of batch.go
// (Batch). Every similarity evaluation performed by a batch builder
// flows through a Pair wrapped with Counted or a kernel wrapped with
// CountedBatch, giving the scan-rate metric of §IV-C for free.
//
// Pair is the reference implementation; the hot construction loops score
// through the kernels, and the counting walk — single-profile queries,
// and the rows that build and maintain the serving graph — through
// ScoreProfile (profile.go). Both are tested bit-for-bit equal to it.
// The walk prepares nothing, so it reads a mutated dataset as it is.
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

// Binding is a metric bound to one dataset: two views of one prepared
// state, which describes the dataset as Prepare found it. They are safe
// for concurrent use while nothing mutates the dataset (the engine's
// build workers).
type Binding struct {
	// Pair is the pairwise reference function.
	Pair Func
	// Batch mints one-vs-many kernels, each bit-for-bit equal to Pair.
	Batch BatchFactory
}

// Metric is a similarity measure over user profiles.
type Metric interface {
	// Name returns the metric's identifier (used in flags and tables).
	Name() string
	// Prepare binds the metric to a dataset, precomputing its per-user
	// or per-item state once.
	Prepare(d *dataset.Dataset) Binding
	// Walk states what the caller's counting walk over the pivot's
	// indexed items must sum per candidate for ScoreProfile; Pivot.Bind
	// asks it once per pivot.
	Walk(pv *Pivot) Walk
	// ScoreProfile finishes the similarity between the pivot's external
	// profile and each user cands[i] of the pivot's source from what the
	// counting walk left: common[i] is their shared-item count
	// |p ∩ cands[i]|, and on entry dst[i] holds the sum the pivot's Walk
	// asked for (unspecified if it asked for none). On return dst[i] is
	// the similarity. len(dst) and len(common) must equal len(cands). See
	// profile.go.
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

// Prepare implements Metric. Cosine keeps no state of its own: it reads
// the dataset's norm cache (Dataset.Norm), built with the item index and
// kept current by the dataset's mutators.
func (Cosine) Prepare(d *dataset.Dataset) Binding {
	d.EnsureItemProfiles()
	return Binding{
		Pair:  func(u, v uint32) float64 { return cosinePair(d, u, v) },
		Batch: func() Batcher { return &cosineBatcher{d: d} },
	}
}

func cosinePair(d *dataset.Dataset, u, v uint32) float64 {
	nu, nv := d.Norm(u), d.Norm(v)
	if nu == 0 || nv == 0 {
		return 0
	}
	return sparse.Dot(d.Users[u], d.Users[v]) / (nu * nv)
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
	st := &adamicState{d: d, invLog: make([]float64, d.NumItems())}
	for i := range st.invLog {
		st.invLog[i] = invLogDegree(len(d.Raters(uint32(i))))
	}
	return Binding{
		Pair:  st.pair,
		Batch: func() Batcher { return &adamicBatcher{st: st} },
	}
}

// adamicState is Adamic–Adar's binding: the profile source and the
// per-item weight table.
type adamicState struct {
	d      *dataset.Dataset
	invLog []float64
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

// bind is the count forms' Prepare. They keep no state: they read
// profiles through d.
func (f countForm) bind(d *dataset.Dataset) Binding {
	pair := func(u, v uint32) float64 {
		a, b := d.Users[u], d.Users[v]
		return f.of(sparse.CommonCount(a, b), a.Len(), b.Len())
	}
	return Binding{
		Pair:  pair,
		Batch: func() Batcher { return &countBatcher{d: d, form: f, pair: pair} },
	}
}
