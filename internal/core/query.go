package core

import (
	"fmt"
	"sync"

	"kiff/internal/dataset"
	"kiff/internal/knngraph"
	"kiff/internal/rcs"
	"kiff/internal/similarity"
	"kiff/internal/sparse"
)

// Index answers single-profile KNN queries against a dataset using KIFF's
// counting-phase pruning: a query only ever compares against users that
// share at least one item with it, examined in decreasing shared-item
// order.
//
// The paper frames KIFF as a graph constructor and explicitly
// distinguishes it from NN *search* (§VI); the index exists because a
// library user who has built a graph over U almost always also needs to
// place new, unseen profiles into it (the recommendation and
// classification workloads of §I). The same Eq. (5)/(6) argument applies:
// with an unlimited budget the result is the exact KNN of the query.
//
// A query is one counting walk (Walker), the loop that also builds and
// maintains the serving graph: it bins the profile into the item
// profiles with epoch-stamped dense counters and, where the metric asks
// for it (similarity.Metric.Walk), sums each candidate's weighted
// overlap on the way; a budget is cut by packed rank keys
// (rcs.SelectRanked); each candidate's score is finished from its count
// and sum in O(1) (similarity.Metric.ScoreProfile); and the answer is
// kept in a bounded top-k.
//
// An Index never mutates its dataset after construction and holds no
// per-query state: the counters and buffers come from a process-wide
// sync.Pool, so any number of goroutines may call Query concurrently — as
// snapshot readers do — provided the dataset itself is not mutated
// underneath it (hand the Index a frozen dataset.View when the writer
// keeps going).
type Index struct {
	d      profileSource
	metric similarity.Metric
}

// profileSource is the read surface Query needs: user profiles and norms
// and the item-profile inverted index with its ratings. Both
// *dataset.Dataset and *dataset.View satisfy it, so an Index is O(1) to
// construct over a freshly published view — nothing is copied or
// prepared per publication.
type profileSource interface {
	similarity.Source
	NumUsers() int
}

// NewIndex builds a query index over the live dataset. metric nil selects
// cosine. The dataset's item profiles are built if missing; construction
// is O(|E|) the first time and O(1) after.
func NewIndex(d *dataset.Dataset, metric similarity.Metric) *Index {
	d.EnsureItemProfiles()
	return &Index{d: d, metric: defaultMetric(metric)}
}

// NewViewIndex builds a query index over a frozen dataset view — the
// snapshot-publication path. Views always carry item profiles, so
// construction is O(1): the per-publication cost of refreshing the query
// index is a single struct allocation.
func NewViewIndex(v *dataset.View, metric similarity.Metric) *Index {
	return &Index{d: v, metric: defaultMetric(metric)}
}

func defaultMetric(m similarity.Metric) similarity.Metric {
	if m == nil {
		return similarity.Cosine{}
	}
	return m
}

// Query returns the k nearest users to the given profile, best first
// (similarity descending, ties by ascending ID). budget bounds the number
// of similarity evaluations, spent on the candidates sharing the most
// items (ties by ascending ID); budget < 0 evaluates every overlapping
// candidate, which yields the exact KNN for metrics satisfying
// Eq. (5)/(6).
//
// The profile uses the same item ID space as the indexed dataset; IDs at
// or beyond NumItems cannot overlap with anyone and are not binned, but
// still count toward the profile's norm and length. Memory per query is
// O(candidates) whatever the item IDs or k of the request, and the only
// allocation is the returned slice.
func (ix *Index) Query(profile sparse.Vector, k, budget int) ([]knngraph.Neighbor, error) {
	if k < 1 {
		return nil, fmt.Errorf("kiff: query k must be ≥ 1, got %d", k)
	}
	if err := profile.Validate(); err != nil {
		return nil, fmt.Errorf("kiff: query profile: %w", err)
	}
	w := queryPool.Get().(*Walker)
	defer queryPool.Put(w)
	return ix.query(w, profile, k, budget), nil
}

// queryPool holds the per-query walkers. It is shared by every Index, so
// the shards of a pool (and successive snapshots) reuse one set of
// counters per concurrent query rather than one per index.
var queryPool = sync.Pool{New: func() any { return new(Walker) }}

func (ix *Index) query(w *Walker, profile sparse.Vector, k, budget int) []knngraph.Neighbor {
	walk := w.pivot.Bind(ix.d, profile, ix.metric)
	defer w.pivot.Release()
	w.count(ix.d, w.pivot.Indexed(), walk)

	cands, common := w.touched, w.common[:0]
	if budget >= 0 && budget < len(cands) {
		keys := w.keys[:0]
		for _, v := range cands {
			keys = append(keys, rcs.RankKey(w.slots[v].count, v))
		}
		rcs.SelectRanked(keys, budget)
		cands = cands[:0]
		for _, key := range keys[:budget] {
			cands = append(cands, rcs.RankKeyUser(key))
			common = append(common, rcs.RankKeyCount(key))
		}
		w.keys = keys
	} else {
		for _, v := range cands {
			common = append(common, w.slots[v].count)
		}
	}
	w.common = common
	sims := w.score(ix.metric, walk, cands, common)

	n := min(k, len(cands))
	top := knngraph.NewTopK(make([]knngraph.Neighbor, 0, n), n)
	for i, v := range cands {
		top.Push(knngraph.Neighbor{ID: v, Sim: sims[i]})
	}
	return top.Sorted()
}
