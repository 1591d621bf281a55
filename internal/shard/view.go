package shard

import (
	"container/heap"
	"fmt"
	"slices"
	"sync"

	"kiff/internal/knngraph"
	"kiff/internal/sparse"
)

// View is a pinned scatter-gather read view: the mapping plus every
// shard's published snapshot, loaded once. A View stays valid forever,
// like the snapshots it holds; serving code typically pins one View per
// request so routing and fan-out see a single consistent population.
//
// The mapping is loaded before the snapshots, so a snapshot may cover a
// user the pinned mapping does not know yet (a concurrent insert that
// completed in between); such users are invisible through this View —
// dropped from shard answers rather than surfaced with an untranslatable
// local ID. The converse window (mapping knows the user, owner shard has
// not published it yet) surfaces as ErrPending from Neighbors. Both
// windows are transient and close at the next View.
type View struct {
	k     int
	m     *mapping
	snaps []Reader
}

// NewView pins a View over fixed per-shard readers — the serving source
// of a server without a writer, such as snapshots loaded straight from a
// checkpoint (LoadView). The readers must partition numUsers global IDs
// exactly as NewPool requires of its maintainers.
func NewView(rs []Reader, numUsers int) (*View, error) {
	m, k, err := partition(rs, numUsers)
	if err != nil {
		return nil, err
	}
	return &View{k: k, m: m, snaps: rs}, nil
}

// View pins the current mapping and every shard's current snapshot.
func (p *Pool) View() *View {
	v := &View{k: p.k, m: p.mapping.Load(), snaps: make([]Reader, len(p.shards))}
	for i, s := range p.shards {
		v.snaps[i] = s.m.Reader()
	}
	return v
}

// Version sums the pinned shards' snapshot versions (see Pool.Version).
func (v *View) Version() uint64 {
	var sum uint64
	for _, s := range v.snaps {
		sum += s.Version()
	}
	return sum
}

// NumUsers returns the number of global users the pinned mapping covers.
func (v *View) NumUsers() int { return len(v.m.owner) }

// K returns the per-shard neighborhood size.
func (v *View) K() int { return v.k }

// route resolves a global ID against the pinned view.
func (v *View) route(g uint32) (s int, local uint32, err error) {
	if int(g) >= len(v.m.owner) {
		return 0, 0, fmt.Errorf("shard: user %d out of range (have %d users): %w", g, len(v.m.owner), ErrNotFound)
	}
	s = int(v.m.owner[g])
	local = v.m.local[g]
	if int(local) >= v.snaps[s].NumUsers() {
		return 0, 0, fmt.Errorf("shard: user %d: %w", g, ErrPending)
	}
	return s, local, nil
}

// Neighbors returns global user g's KNN list from its owning shard,
// relabeled to global IDs. The list is the shard-local neighborhood —
// the partition-level approximation documented on the package — and
// keeps the canonical (sim desc, global ID asc) order, because local ID
// order within a shard is global ID order. Neighbors whose IDs the
// pinned mapping does not cover yet (concurrent inserts) are dropped.
// The list may be the shard snapshot's own row: treat it as read-only.
func (v *View) Neighbors(g uint32) ([]knngraph.Neighbor, error) {
	s, local, err := v.route(g)
	if err != nil {
		return nil, err
	}
	glob := v.m.global[s]
	nbs := v.snaps[s].Neighbors(local)
	if len(v.snaps) == 1 && !slices.ContainsFunc(nbs, func(nb knngraph.Neighbor) bool { return int(nb.ID) >= len(glob) }) {
		// One shard owns every user, so its local IDs are the global IDs.
		return nbs, nil
	}
	out := make([]knngraph.Neighbor, 0, len(nbs))
	for _, nb := range nbs {
		if int(nb.ID) < len(glob) {
			out = append(out, knngraph.Neighbor{ID: glob[nb.ID], Sim: nb.Sim})
		}
	}
	return out, nil
}

// Profile returns global user g's item profile from its owning shard's
// frozen view (treat as read-only), or false for unknown/pending IDs.
func (v *View) Profile(g uint32) (sparse.Vector, bool) {
	s, local, err := v.route(g)
	if err != nil {
		return sparse.Vector{}, false
	}
	return v.snaps[s].Profile(local)
}

// Query fans the profile out to every shard's snapshot concurrently,
// relabels each shard's top-k to global IDs, and splices the lists with
// a merge heap into the global top-k.
//
// Exactness: with a negative budget each shard evaluates every local
// user sharing an item with the profile, so the union of shard
// candidates is exactly the unsharded candidate set, and per-shard
// similarities equal the unsharded ones for the profile-local metrics
// (cosine, jaccard, dice, overlap — adamic-adar weights by dataset-wide
// item popularity and is therefore shard-approximate). Every shard list
// and the merge use the same total order — similarity descending, global
// ID ascending — and an element of the global top-k is necessarily in
// its own shard's top-k, so the spliced result is identical, entry for
// entry, to the single-maintainer answer. A non-negative budget is
// applied per shard (up to N× the single-index evaluation spend, never
// fewer candidates than any one shard would see). A one-shard view has
// nothing to fan out or merge: its shard answers on the caller's
// goroutine.
func (v *View) Query(profile sparse.Vector, k, budget int) ([]knngraph.Neighbor, error) {
	if len(v.snaps) == 1 {
		return v.shardQuery(0, profile, k, budget)
	}
	lists := make([][]knngraph.Neighbor, len(v.snaps))
	errs := make([]error, len(v.snaps))
	var wg sync.WaitGroup
	for s := range v.snaps {
		wg.Add(1)
		go func(s int) {
			defer wg.Done()
			lists[s], errs[s] = v.shardQuery(s, profile, k, budget)
		}(s)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			// Validation errors (bad k, malformed profile) are identical
			// across shards; report the first.
			return nil, err
		}
	}
	return MergeTopK(lists, k), nil
}

// shardQuery runs the query on shard s and relabels its answer to global
// IDs in place (the shard's answer is a fresh slice).
func (v *View) shardQuery(s int, profile sparse.Vector, k, budget int) ([]knngraph.Neighbor, error) {
	res, err := v.snaps[s].Query(profile, k, budget)
	if err != nil {
		return nil, err
	}
	glob := v.m.global[s]
	out := res[:0]
	for _, nb := range res {
		if int(nb.ID) < len(glob) {
			out = append(out, knngraph.Neighbor{ID: glob[nb.ID], Sim: nb.Sim})
		}
	}
	return out, nil
}

// mergeHeap is a min-heap of non-empty neighbor lists, ordered by their
// head elements under the canonical neighbor order — the splice
// structure of the scatter-gather read path.
type mergeHeap [][]knngraph.Neighbor

func (h mergeHeap) Len() int { return len(h) }
func (h mergeHeap) Less(i, j int) bool {
	return knngraph.CompareNeighbors(h[i][0], h[j][0]) < 0
}
func (h mergeHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *mergeHeap) Push(x any)   { *h = append(*h, x.([]knngraph.Neighbor)) }
func (h *mergeHeap) Pop() any     { old := *h; x := old[len(old)-1]; *h = old[:len(old)-1]; return x }

// MergeTopK splices per-shard result lists — each already sorted by
// knngraph.CompareNeighbors — into the first k elements of their merged
// order. Cost is O(k log N) pops over N lists, independent of list
// lengths.
func MergeTopK(lists [][]knngraph.Neighbor, k int) []knngraph.Neighbor {
	h := make(mergeHeap, 0, len(lists))
	total := 0
	for _, l := range lists {
		if len(l) > 0 {
			h = append(h, l)
			total += len(l)
		}
	}
	heap.Init(&h)
	// Capacity is bounded by what the lists actually hold, never by k
	// alone — k arrives from query requests and may be absurdly large.
	out := make([]knngraph.Neighbor, 0, min(k, total))
	for len(out) < k && h.Len() > 0 {
		top := h[0]
		out = append(out, top[0])
		if len(top) > 1 {
			h[0] = top[1:]
			heap.Fix(&h, 0)
		} else {
			heap.Pop(&h)
		}
	}
	return out
}
