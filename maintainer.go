package kiff

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"kiff/internal/core"
	"kiff/internal/knngraph"
	"kiff/internal/knnheap"
	"kiff/internal/parallel"
	"kiff/internal/runstats"
	"kiff/internal/similarity"
	"kiff/internal/wal"
)

// Maintainer keeps a KNN graph fresh under a stream of profile updates
// without full reconstruction — the online-serving scenario the paper's
// introduction motivates (search, recommendation and classification
// backends whose user base keeps changing).
//
// Every score it computes comes from one counting walk (core.Walker):
// KIFF's counting phase (§II-B) over a user's item rows, which visits
// exactly the users it shares items with and sums each one's similarity
// on the way. Run to exhaustion, the walk yields the user's exact row
// (γ = ∞, exact by Eq. (5)/(6)). The cold build walks every user once;
// Insert walks the new user and offers it to every candidate, in both
// directions; AddRating records an in-place profile change and marks the
// user dirty; Rebuild walks each dirty user, evicts it from every user
// it shares an item with, and offers it back. A write therefore costs
// O(Σ|IPi|) over the items of the users it touches, independent of |U|.
// KIFF's γ/β refinement does not apply here: Options.Gamma and
// Options.Beta keep their Build meaning and are ignored by a Maintainer.
//
// What is exact: the cold-built graph (it equals Build with Gamma < 0);
// the row of each user an Insert or Rebuild walks, as of that walk; and,
// under the four profile-local metrics (cosine, jaccard, dice, overlap),
// every stored similarity. Under Adamic–Adar an entry keeps the weights
// of the walk that scored it when a later rating changes an item's
// popularity |IPi| (see Rebuild). What is not: the rows of the users a
// write does not walk. An offer can only add the walked user to a row,
// and an eviction that leaves a row room does not bring back the
// neighbor it once displaced, so such a row can keep a lower neighbor
// than its true k-th.
//
// A Maintainer is a single-writer structure: Insert, InsertBatch,
// AddRating and Rebuild must not run concurrently with each other or
// with Graph. Concurrent readers do not touch the live structures at
// all: they load the immutable Snapshot the writer publishes after each
// mutation batch (see Snapshot) and serve Neighbors/Query from it
// lock-free.
type Maintainer struct {
	d      *Dataset
	metric similarity.Metric
	// minRating is the §VII candidate threshold, 0 when off.
	minRating float64
	heaps     *knnheap.Set
	// walk is the writer's counting walk; evals counts the candidates
	// its rows scored.
	walk    core.Walker
	evals   int64
	run     runstats.Run
	dirty   map[uint32]struct{}
	scratch []uint32

	inserts      int64
	rebuilds     int64
	rebuiltUsers int64

	// Publication cost counters (see runstats.Counters): page accounting
	// covers both the graph pages and the dataset header pages of each
	// copy-on-write publication.
	publishes     int64
	pagesCopied   int64
	pagesShared   int64
	entriesCopied int64
	publishNs     int64
	lastPublishNs int64

	// snap is the serving-side publication point: an immutable view
	// replaced wholesale by the writer, loaded lock-free by readers.
	snap    atomic.Pointer[Snapshot]
	version uint64

	// wlog, when attached (OpenWAL), receives every mutation before it is
	// applied; walErr fail-stops the maintainer after an append failure
	// (atomic so health endpoints may read it off the writer goroutine).
	// See wal.go for the durability contract.
	wlog   *wal.Log
	walErr atomic.Pointer[error]
}

// NewMaintainer cold-builds the exact KNN graph of d and returns a
// Maintainer wrapping it. The build walks each user once and keeps only
// that user's top-k, in parallel over Options.Workers; the graph equals
// Build's with Gamma < 0. Options.K, Metric, Workers and MinRating apply
// as in Build; Gamma and Beta do not (see Maintainer). The dataset is
// retained and mutated by Insert/AddRating; the caller must not modify
// it directly afterward.
func NewMaintainer(d *Dataset, opts Options) (*Maintainer, error) {
	m, err := newMaintainer(d, opts)
	if err != nil {
		return nil, err
	}
	parallel.Blocks(d.NumUsers(), opts.Workers, func(_, lo, hi int) {
		// Each row's top-k is selected privately, under the heaps' order,
		// and only the kept entries reach the user's (empty) heap.
		var w core.Walker
		buf := make([]knngraph.Neighbor, 0, opts.K)
		for u := uint32(lo); u < uint32(hi); u++ {
			cands, sims, _ := w.Row(d, m.metric, u, m.minRating)
			top := knngraph.NewTopK(buf, opts.K)
			for i, v := range cands {
				top.Push(knngraph.Neighbor{ID: v, Sim: sims[i]})
			}
			for _, nb := range top.Sorted() {
				m.heaps.Update(u, nb.ID, nb.Sim)
			}
		}
	})
	m.publish()
	return m, nil
}

// NewMaintainerFromGraph wraps an already-built graph — typically one
// loaded from a checkpoint with LoadGraph or LoadGraphMapped — in a
// Maintainer without re-running construction: the cold start of a serving
// process that must also accept writes. The neighborhood heaps are seeded
// from the graph's edge lists in O(|U|·k), so the seeded rows are as
// exact as the graph's; later writes walk the users they touch, as in
// NewMaintainer.
//
// The graph must cover exactly the dataset's users and match Options.K
// (K = 0 adopts the graph's k). The dataset is retained and mutated like
// in NewMaintainer; the graph itself is only read during seeding, so a
// mapped graph may be closed once NewMaintainerFromGraph returns. The
// first published Snapshot serves an exported copy of the seeded heaps,
// which is edge-for-edge identical to the input graph.
func NewMaintainerFromGraph(d *Dataset, g *Graph, opts Options) (*Maintainer, error) {
	if g.NumUsers() != d.NumUsers() {
		return nil, fmt.Errorf("kiff: graph covers %d users, dataset has %d (was the graph saved from a different dataset?)",
			g.NumUsers(), d.NumUsers())
	}
	if opts.K == 0 {
		opts.K = g.K()
	}
	if opts.K != g.K() {
		return nil, fmt.Errorf("kiff: Options.K = %d, graph was built with k = %d", opts.K, g.K())
	}
	m, err := newMaintainer(d, opts)
	if err != nil {
		return nil, err
	}
	for u := 0; u < d.NumUsers(); u++ {
		for _, nb := range g.Neighbors(uint32(u)) {
			m.heaps.Update(uint32(u), nb.ID, nb.Sim)
		}
	}
	m.publish()
	return m, nil
}

// newMaintainer is the constructors' shared head: it validates the
// options a Maintainer reads and returns one over d with empty heaps,
// unpublished.
func newMaintainer(d *Dataset, opts Options) (*Maintainer, error) {
	if opts.Algorithm != "" && opts.Algorithm != KIFF {
		return nil, fmt.Errorf("kiff: Maintainer requires the kiff algorithm, got %q", opts.Algorithm)
	}
	if opts.K < 1 {
		return nil, fmt.Errorf("kiff: K must be ≥ 1, got %d", opts.K)
	}
	if opts.MinRating < 0 {
		return nil, errors.New("kiff: MinRating must be ≥ 0")
	}
	metric, err := opts.metric()
	if err != nil {
		return nil, err
	}
	d.EnsureItemProfiles()
	// The §VII candidate filter only applies to weighted datasets, as in
	// the batch counting phase. Binaryness is assessed here, once: a
	// binary dataset that later gains weighted ratings keeps the filter
	// off.
	minRating := opts.MinRating
	if d.Binary() {
		minRating = 0
	}
	return &Maintainer{
		d:         d,
		metric:    metric,
		minRating: minRating,
		heaps:     knnheap.NewSet(d.NumUsers(), opts.K),
		dirty:     make(map[uint32]struct{}),
		run: runstats.Run{
			Algorithm: "kiff-maintain",
			NumUsers:  d.NumUsers(),
			K:         opts.K,
		},
	}, nil
}

// publish freezes the current graph and dataset into a new Snapshot and
// swaps it in atomically. Writer-only.
//
// The first publication exports the full graph (FromSet) and arms the
// heap set's dirty tracking; every later publication drains the dirty
// user set and patches the previous snapshot's graph row by row
// (knngraph.PatchFrom), while the dataset view likewise shares clean
// header pages with its predecessor — O(dirty rows · k) plus a page-table
// copy instead of O(|U|·k + |I|). Patching always starts from the
// previously published (heap-built) graph, never from a mapped one, so
// published rows never alias file-backed memory.
func (m *Maintainer) publish() {
	start := time.Now()
	m.version++
	var g *knngraph.Graph
	var st knngraph.PatchStats
	if prev := m.snap.Load(); prev != nil {
		m.scratch = m.heaps.DrainDirty(m.scratch[:0])
		g, st = knngraph.PatchFrom(prev.graph, m.heaps, m.scratch)
	} else {
		g = knngraph.FromSet(m.heaps)
		st = knngraph.PatchStats{PagesCopied: g.NumPages(), EntriesCopied: g.NumEdges()}
		m.heaps.TrackDirty()
	}
	view := m.d.View()
	vc, vs := m.d.LastViewStats()
	m.snap.Store(newSnapshot(m.version, g, view, m.metric))
	ns := time.Since(start).Nanoseconds()
	m.publishes++
	m.pagesCopied += int64(st.PagesCopied + vc)
	m.pagesShared += int64(st.PagesShared + vs)
	m.entriesCopied += int64(st.EntriesCopied)
	m.publishNs += ns
	m.lastPublishNs = ns
}

// Snapshot returns the most recently published immutable view. It is
// safe to call from any goroutine at any time; the returned Snapshot
// stays valid (and internally consistent) forever, even as the writer
// publishes newer ones.
func (m *Maintainer) Snapshot() *Snapshot { return m.snap.Load() }

// Insert appends a new user with the given profile, splices it into the
// graph, and returns its ID. The new user is walked once: its own row is
// exact, and it is offered to every candidate's row (see the type
// comment for the cost model).
func (m *Maintainer) Insert(p Profile) (uint32, error) {
	if err := m.walGuard(); err != nil {
		return 0, err
	}
	if m.wlog != nil {
		// Validate before logging: a logged record must be applicable, or
		// replay would diverge from the state the caller observed.
		if err := p.Validate(); err != nil {
			return 0, fmt.Errorf("dataset: add user: %w", err)
		}
		if err := m.logMutation(wal.Record{Kind: wal.KindAddUser, Items: p.IDs, Weights: p.Weights}); err != nil {
			return 0, err
		}
	}
	start := time.Now()
	id, err := m.d.AddUser(p)
	if err != nil {
		return 0, err
	}
	m.heaps.Grow(1)
	cands, sims, _ := m.walk.Row(m.d, m.metric, id, m.minRating)
	m.offer(id, cands, sims)
	m.inserts++
	m.run.NumUsers = m.d.NumUsers()
	m.run.WallTime += time.Since(start)
	m.publish()
	return id, nil
}

// InsertBatch inserts a batch of users, growing the neighborhood heaps
// once and publishing a single snapshot at the end. Publication costs
// O(dirty rows · k) — the batch's users and the neighborhoods it
// displaced — plus one page-table copy, so batching amortizes the
// per-user arena growth and the table copy into one publish. Profiles
// are validated up front; on a validation error nothing is mutated.
func (m *Maintainer) InsertBatch(ps []Profile) ([]uint32, error) {
	if err := m.walGuard(); err != nil {
		return nil, err
	}
	start := time.Now()
	for i := range ps {
		if err := ps[i].Validate(); err != nil {
			return nil, fmt.Errorf("kiff: insert batch: profile %d: %w", i, err)
		}
	}
	if m.wlog != nil {
		// All records land before any profile is applied. A mid-batch
		// append failure fail-stops the maintainer with some records logged
		// but unapplied; replay after restart applies them (at-least-once —
		// the caller was never acknowledged), so log and state re-converge.
		for i := range ps {
			if err := m.logMutation(wal.Record{Kind: wal.KindAddUser, Items: ps[i].IDs, Weights: ps[i].Weights}); err != nil {
				return nil, fmt.Errorf("kiff: insert batch: profile %d: %w", i, err)
			}
		}
	}
	m.heaps.Grow(len(ps))
	ids := make([]uint32, 0, len(ps))
	for _, p := range ps {
		// AddUser re-validates; validation is its only error path, so it
		// cannot fail on the pre-checked profiles above.
		id, err := m.d.AddUser(p)
		if err != nil {
			return ids, fmt.Errorf("kiff: insert batch: %w", err)
		}
		cands, sims, _ := m.walk.Row(m.d, m.metric, id, m.minRating)
		m.offer(id, cands, sims)
		m.inserts++
		ids = append(ids, id)
	}
	m.run.NumUsers = m.d.NumUsers()
	m.run.WallTime += time.Since(start)
	m.publish()
	return ids, nil
}

// AddRating records a rating change for an existing user and marks the
// user dirty. The graph is not touched until Rebuild runs; batching many
// rating updates before one Rebuild amortizes the refresh.
func (m *Maintainer) AddRating(u uint32, item uint32, rating float64) error {
	if err := m.walGuard(); err != nil {
		return err
	}
	if m.wlog != nil {
		if int(u) >= m.d.NumUsers() {
			// Out of range: skip the log and let the dataset produce its
			// canonical error — nothing will be applied either way.
			return m.d.AddRating(u, item, rating)
		}
		if err := m.logMutation(wal.Record{Kind: wal.KindAddRating, User: u, Item: item, Rating: rating}); err != nil {
			return err
		}
	}
	if err := m.d.AddRating(u, item, rating); err != nil {
		return err
	}
	m.dirty[u] = struct{}{}
	return nil
}

// Dirty lists the users whose profiles changed since the last Rebuild,
// in ascending order.
func (m *Maintainer) Dirty() []uint32 {
	out := make([]uint32, 0, len(m.dirty))
	for u := range m.dirty {
		out = append(out, u)
	}
	slices.Sort(out)
	return out
}

// Rebuild refreshes the neighborhoods of the given users (nil = every
// user currently marked dirty; duplicates are ignored): each one's row
// is rebuilt from scratch by a walk over its updated profile, the stale
// references other users hold to it are evicted, and its fresh
// similarities are offered back to its candidates.
//
// Eviction follows the rebuilt users' raw item rows: per rebuilt user u
// it costs O(Σ_{i∈P(u)} |IPi|) — the walk that scores u — plus one heap
// probe per distinct co-rater, independent of |U|. Every holder of u
// whose entry can be stale is a co-rater of u: maintenance only offers
// pairs sharing an item, and dataset mutations insert or re-weight
// items, never remove them, so such a holder still shares an item of
// u's current profile. The eviction reaches every co-rater, not just
// u's candidates: under MinRating a re-rating below the threshold drops
// a holder from the candidates while its entry still holds the old
// similarity. Entries between users with no item in common are not
// evicted. They only exist in graphs seeded through
// NewMaintainerFromGraph from a builder that pads short neighborhoods
// (brute force, NN-Descent, HyRec, bucketed), and their similarity is 0
// before and after the mutation.
//
// Every eviction of a call precedes its first offer: a stale entry of a
// later user could otherwise hold the heap slot an earlier user's fresh
// offer needs. A lone user's walk serves both; several users are first
// walked count-only to evict them.
//
// Under the profile-local metrics (cosine, jaccard, dice, overlap) no
// stale similarity survives a Rebuild. Adamic–Adar is inexact here: a new
// rating (or an inserted user) of item i changes |IPi|, which shifts the
// similarity of every pair co-rating i, but only pairs involving a
// rebuilt user are re-evaluated — the others keep their old weights until
// one endpoint is rebuilt. On the wikipedia preset at scale 0.05 (seed
// 42, k = 5), one rating of the most popular item (|IPi| = 174) leaves
// 864 stale entries, over half the graph.
func (m *Maintainer) Rebuild(dirty []uint32) error {
	if err := m.walGuard(); err != nil {
		return err
	}
	start := time.Now()
	logAll := dirty == nil
	if dirty == nil {
		dirty = m.Dirty()
	}
	n := m.d.NumUsers()
	for _, u := range dirty {
		if int(u) >= n {
			return fmt.Errorf("kiff: Rebuild: user %d out of range (have %d users)", u, n)
		}
	}
	if len(dirty) == 0 {
		return nil
	}
	if m.wlog != nil {
		// Rebuild boundaries are state-bearing (see wal.KindRebuild), so
		// they are logged like any mutation. A nil argument is logged as
		// All: replay resolves it against the dirty set the replayed
		// AddRating records rebuilt, which matches the live resolution.
		rec := wal.Record{Kind: wal.KindRebuild, All: logAll}
		if !logAll {
			rec.Dirty = dirty
		}
		if err := m.logMutation(rec); err != nil {
			return err
		}
	}
	// Deduplicate; the walks then run in ascending ID order, whatever
	// order the caller listed the users in.
	order := slices.Clone(dirty)
	slices.Sort(order)
	order = slices.Compact(order)
	for _, u := range order {
		m.heaps.Clear(u)
	}
	if len(order) > 1 {
		for _, u := range order {
			m.evict(u, m.walk.CoRaters(m.d, u))
		}
	}
	for _, u := range order {
		cands, sims, coRaters := m.walk.Row(m.d, m.metric, u, m.minRating)
		if len(order) == 1 {
			m.evict(u, coRaters)
		}
		m.offer(u, cands, sims)
		delete(m.dirty, u)
	}
	m.rebuilds++
	m.rebuiltUsers += int64(len(order))
	m.run.WallTime += time.Since(start)
	m.publish()
	return nil
}

// evict removes u from the heaps of its co-raters (u's own heap, which
// the list includes, is already empty).
func (m *Maintainer) evict(u uint32, coRaters []uint32) {
	for _, v := range coRaters {
		m.heaps.Remove(v, u)
	}
}

// offer offers u's walked row to both endpoints of every candidate and
// counts the candidates as scored.
func (m *Maintainer) offer(u uint32, cands []uint32, sims []float64) {
	for i, v := range cands {
		m.heaps.Update(u, v, sims[i])
		m.heaps.Update(v, u, sims[i])
	}
	m.evals += int64(len(cands))
}

// Graph snapshots the current maintained KNN graph.
func (m *Maintainer) Graph() *Graph { return knngraph.FromSet(m.heaps) }

// Dataset returns the maintained dataset. Mutate it only through the
// Maintainer (Insert, AddRating), or the graph will go silently stale.
func (m *Maintainer) Dataset() *Dataset { return m.d }

// Stats returns the cumulative cost record of the maintenance operations
// (Insert, Rebuild) since NewMaintainer — the cold build's own costs are
// not included. SimEvals counts the candidates the walks scored: the
// headline number, which a full rebuild would multiply.
func (m *Maintainer) Stats() Run {
	r := m.run
	r.SimEvals = m.evals
	return r
}

// Counters are the cumulative maintenance counters since the Maintainer
// was created — the serving-time cost observables: how many users were
// spliced in, how many rebuild passes ran (and over how many users), and
// the similarity evaluations all of it spent. The type lives in
// internal/runstats so aggregation layers (the shard pool, /stats) can
// share it; see runstats.Counters for the field documentation.
type Counters = runstats.Counters

// Counters returns the cumulative maintenance counters. Like Stats, it
// must be called from the writer side (or after mutations quiesce).
func (m *Maintainer) Counters() Counters {
	return Counters{
		SimEvals:      m.evals,
		Inserts:       m.inserts,
		Rebuilds:      m.rebuilds,
		RebuiltUsers:  m.rebuiltUsers,
		WallNs:        m.run.WallTime.Nanoseconds(),
		Publishes:     m.publishes,
		PagesCopied:   m.pagesCopied,
		PagesShared:   m.pagesShared,
		EntriesCopied: m.entriesCopied,
		PublishNs:     m.publishNs,
		LastPublishNs: m.lastPublishNs,
	}
}
