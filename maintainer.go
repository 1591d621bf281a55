package kiff

import (
	"fmt"
	"math"
	"slices"
	"sync/atomic"
	"time"

	"kiff/internal/engine"
	"kiff/internal/knngraph"
	"kiff/internal/knnheap"
	"kiff/internal/rcs"
	"kiff/internal/runstats"
	"kiff/internal/similarity"
	"kiff/internal/wal"
)

// Maintainer keeps a KIFF-built KNN graph fresh under a stream of profile
// updates without full reconstruction — the online-serving scenario the
// paper's introduction motivates (search, recommendation and
// classification backends whose user base keeps changing).
//
// The construction principle carries over from the batch algorithm: a
// user's relevant candidates are exactly the users it shares items with,
// ranked by shared-item count. Insert therefore splices a new user into
// the graph by evaluating only its ranked candidate set (patched from the
// item-profile index in O(Σ|IPi|) for the items it holds), updating both
// endpoints' heaps — a tiny fraction of the work of rebuilding the graph.
// AddRating records in-place profile changes and marks the user dirty;
// Rebuild refreshes the dirty users' neighborhoods, evicting the stale
// similarities other users may still hold — found through the same
// item-profile rows, so a rebuild costs O(Σ|IPi|) over the items the
// dirty users hold.
//
// Insert keeps the new user's own neighborhood exact in exact mode
// (Options.Beta < 0: its candidate set provably contains every user with
// positive similarity). Affected existing users are updated through the
// symmetric heap offer, which — as in batch KIFF — cannot displace what
// it never evaluated; the recall of the maintained graph consequently
// tracks a cold build's within noise (see the convergence property test).
//
// A Maintainer is a single-writer structure: Insert, InsertBatch,
// AddRating and Rebuild must not run concurrently with each other or
// with Graph. Concurrent readers do not touch the live structures at
// all: they load the immutable Snapshot the writer publishes after each
// mutation batch (see Snapshot) and serve Neighbors/Query from it
// lock-free.
type Maintainer struct {
	d     *Dataset
	opts  engine.Options
	heaps *knnheap.Set
	sets  *rcs.Sets
	// kernel is the evaluation-counted one-vs-many kernel over the
	// metric's binding to d, and refresh is that binding's Refresh: it
	// patches the prepared state (norms, item weights) per mutated user,
	// so a mutation costs O(changed profile), not a full O(|U|)
	// re-preparation.
	kernel  similarity.Batcher
	refresh func(uint32)
	evals   atomic.Int64
	run     runstats.Run
	dirty   map[uint32]struct{}
	scratch []uint32
	scores  []float64

	// seen is Rebuild's epoch-stamped visit set over users (see
	// evictStale): seen[v] == epoch means v was already handled in the
	// current pass, so a user reached through many shared items is
	// probed once.
	seen  []uint32
	epoch uint32

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

// NewMaintainer cold-builds the KNN graph with KIFF (honoring opts as in
// Build) and returns a Maintainer wrapping the live engine state. The
// dataset is retained and mutated by Insert/AddRating; the caller must
// not modify it directly afterward.
//
// Options.Beta keeps its Build meaning and additionally controls the
// maintenance refinement: with Beta ≥ 0 an Insert or Rebuild stops
// popping a user's ranked candidates once a γ-sized chunk yields no
// neighborhood change; with Beta < 0 it exhausts them (exact per-user
// candidates, at higher cost).
func NewMaintainer(d *Dataset, opts Options) (*Maintainer, error) {
	if opts.Algorithm != "" && opts.Algorithm != KIFF {
		return nil, fmt.Errorf("kiff: Maintainer requires the kiff algorithm, got %q", opts.Algorithm)
	}
	eo, err := opts.engineOptions()
	if err != nil {
		return nil, err
	}
	res, err := engine.Build(string(KIFF), d, eo)
	if err != nil {
		return nil, err
	}
	// engine.Build normalized a copy of eo; re-normalize ours so the
	// maintenance loops see the same defaults (γ = 2k, β = 0.001, metric).
	b, _ := engine.Lookup(string(KIFF))
	if err := b.Normalize(&eo); err != nil {
		return nil, err
	}
	// The §VII candidate filter only applies to weighted datasets; gate it
	// once here, mirroring what the batch counting phase does per build.
	// (Binaryness is assessed at construction: a binary dataset that later
	// gains weighted ratings keeps the filter disabled.)
	if eo.MinRating > 0 && d.Binary() {
		eo.MinRating = 0
	}
	return newMaintainer(d, eo, res.Heaps, res.Binding), nil
}

// NewMaintainerFromGraph wraps an already-built graph — typically one
// loaded from a checkpoint with LoadGraph or LoadGraphMapped — in a
// Maintainer without re-running construction: the cold start of a serving
// process that must also accept writes. The neighborhood heaps are seeded
// from the graph's edge lists in O(|U|·k); candidate sets are recomputed
// lazily, per user, as mutations touch them.
//
// The graph must cover exactly the dataset's users and match Options.K
// (K = 0 adopts the graph's k). The dataset is retained and mutated like
// in NewMaintainer; the graph itself is only read during seeding, so a
// mapped graph may be closed once NewMaintainerFromGraph returns. The
// first published Snapshot serves an exported copy of the seeded heaps,
// which is edge-for-edge identical to the input graph.
func NewMaintainerFromGraph(d *Dataset, g *Graph, opts Options) (*Maintainer, error) {
	if opts.Algorithm != "" && opts.Algorithm != KIFF {
		return nil, fmt.Errorf("kiff: Maintainer requires the kiff algorithm, got %q", opts.Algorithm)
	}
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
	if opts.K < 1 {
		return nil, fmt.Errorf("kiff: K must be ≥ 1, got %d", opts.K)
	}
	if math.IsNaN(opts.Beta) {
		return nil, fmt.Errorf("kiff: Beta must not be NaN")
	}
	eo, err := opts.engineOptions()
	if err != nil {
		return nil, err
	}
	b, err := engine.Lookup(string(KIFF))
	if err != nil {
		return nil, err
	}
	if err := b.Normalize(&eo); err != nil {
		return nil, err
	}
	// Same §VII gate as NewMaintainer: the positive-rating candidate
	// filter only applies to weighted datasets.
	if eo.MinRating > 0 && d.Binary() {
		eo.MinRating = 0
	}
	d.EnsureItemProfiles()
	n := d.NumUsers()
	heaps := knnheap.NewSet(n, eo.K)
	for u := 0; u < n; u++ {
		for _, nb := range g.Neighbors(uint32(u)) {
			heaps.Update(uint32(u), nb.ID, nb.Sim)
		}
	}
	return newMaintainer(d, eo, heaps, eo.Metric.Prepare(d)), nil
}

// newMaintainer is the constructors' shared tail: it wraps the heaps
// and the metric's binding to d (the cold build's own, or a fresh one)
// and publishes the first snapshot.
func newMaintainer(d *Dataset, eo engine.Options, heaps *knnheap.Set, b similarity.Binding) *Maintainer {
	m := &Maintainer{
		d:       d,
		opts:    eo,
		heaps:   heaps,
		sets:    rcs.NewSets(d.NumUsers()),
		refresh: b.Refresh,
		dirty:   make(map[uint32]struct{}),
		run: runstats.Run{
			Algorithm: "kiff-maintain",
			NumUsers:  d.NumUsers(),
			K:         eo.K,
		},
	}
	m.kernel = similarity.CountedBatch(b.Batch, &m.evals)()
	m.publish()
	return m
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
	m.snap.Store(newSnapshot(m.version, g, view, m.opts.Metric))
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

// rcsOpts maps the maintenance options onto the counting-phase options.
func (m *Maintainer) rcsOpts() rcs.BuildOptions {
	return rcs.BuildOptions{MinRating: m.opts.MinRating}
}

// Insert appends a new user with the given profile, splices it into the
// graph, and returns its ID. Only the new user's ranked candidates are
// evaluated; see the type comment for the cost model.
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
	m.sets.PatchUser(m.d, id, m.rcsOpts())
	m.refresh(id)
	m.refineUser(id)
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
		m.sets.PatchUser(m.d, id, m.rcsOpts())
		m.refresh(id)
		m.refineUser(id)
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
	m.refresh(u)
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
// user currently marked dirty; duplicates are ignored): their candidate
// sets are recomputed against the updated profiles, their own
// neighborhoods are rebuilt from scratch, and stale references to them
// are evicted from other users' heaps before the fresh similarities are
// offered back.
//
// Eviction follows the rebuilt users' item-profile rows: per rebuilt user
// u it costs O(Σ_{i∈P(u)} |IPi|) stamp checks — no more than the
// candidate patch before it — plus one heap probe per distinct co-rater,
// independent of |U|. The rule is:
// entries whose similarity can have changed are evicted; entries between
// users with no item in common are not. The latter only exist in graphs
// seeded through NewMaintainerFromGraph from a builder that pads short
// neighborhoods (brute force, NN-Descent, HyRec, bucketed), and their
// similarity is 0 before and after the mutation.
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
	// Iterate targets in ascending ID order: refineUser offers
	// similarities into shared heaps, so iteration order is visible in
	// tie-broken neighborhoods — any other order would make Rebuild
	// depend on how the caller listed the users (and diverge from a WAL
	// replay of the same boundary).
	order := slices.Clone(dirty)
	slices.Sort(order)
	order = slices.Compact(order)
	for _, u := range order {
		m.sets.PatchUser(m.d, u, m.rcsOpts())
		m.heaps.Clear(u)
	}
	m.evictStale(order)
	for _, u := range order {
		m.refineUser(u)
		delete(m.dirty, u)
	}
	m.rebuilds++
	m.rebuiltUsers += int64(len(order))
	m.run.WallTime += time.Since(start)
	m.publish()
	return nil
}

// evictStale removes every heap reference to the users in order (sorted,
// unique, their own heaps already cleared): such an entry v→u carries a
// pre-mutation similarity, and refineUser re-offers the fresh value.
//
// Every holder of u whose entry can be stale is a co-rater of u:
// maintenance only offers pairs sharing an item (KIFF candidates), and
// dataset mutations insert or re-weight items, never remove them, so such
// a holder still shares an item of u's current profile. (Seeded entries
// between users sharing no item score 0 before and after, and stay.) The
// walk therefore visits u's raw item rows — not u's candidate list, which
// MinRating filters: a re-rating below the threshold drops a holder from
// it. Other targets are skipped (their heaps are empty) and each co-rater
// is probed once per target.
func (m *Maintainer) evictStale(order []uint32) {
	if n := m.d.NumUsers(); len(m.seen) < n {
		m.seen = append(m.seen, make([]uint32, n-len(m.seen))...)
	}
	// One epoch marks the targets, one more per target marks its visited
	// co-raters. Reset before the counter could wrap into live stamps.
	if uint64(m.epoch)+uint64(len(order))+1 > math.MaxUint32 {
		clear(m.seen)
		m.epoch = 0
	}
	m.epoch++
	target := m.epoch
	for _, u := range order {
		m.seen[u] = target
	}
	for _, u := range order {
		m.epoch++
		for _, it := range m.d.User(u).IDs {
			for _, v := range m.d.Item(it) {
				if s := m.seen[v]; s == target || s == m.epoch {
					continue
				}
				m.seen[v] = m.epoch
				m.heaps.Remove(v, u)
			}
		}
	}
}

// refineUser runs KIFF's refinement loop for a single user: pop the top γ
// untried candidates, score the whole chunk with the one-vs-many kernel
// (u's profile scattered once per chunk), update both endpoints' heaps;
// stop on exhaustion or — in approximate mode — when a full chunk changes
// nothing (the per-user analogue of the β threshold: ranked order means
// later candidates are ever less likely to displace anything).
func (m *Maintainer) refineUser(u uint32) {
	for iter := 0; ; iter++ {
		cs := m.sets.TopPop(u, m.opts.Gamma)
		if len(cs) == 0 {
			break
		}
		if cap(m.scores) < len(cs) {
			m.scores = make([]float64, len(cs))
		}
		scores := m.scores[:len(cs)]
		m.kernel.ScoreInto(scores, u, cs)
		var changes int64
		for i, v := range cs {
			changes += int64(m.heaps.Update(u, v, scores[i]))
			changes += int64(m.heaps.Update(v, u, scores[i]))
		}
		// Only aggregate counters: a long-lived maintainer must not grow
		// per-chunk traces (UpdatesPerIter etc.) without bound.
		m.run.Iterations++
		if m.opts.Beta >= 0 && changes == 0 {
			break
		}
	}
}

// Graph snapshots the current maintained KNN graph.
func (m *Maintainer) Graph() *Graph { return knngraph.FromSet(m.heaps) }

// Dataset returns the maintained dataset. Mutate it only through the
// Maintainer (Insert, AddRating), or the graph will go silently stale.
func (m *Maintainer) Dataset() *Dataset { return m.d }

// Stats returns the cumulative cost record of the maintenance operations
// (Insert, Rebuild) since NewMaintainer — the cold build's own costs are
// not included. SimEvals is the headline number: it is what a full
// rebuild would multiply.
func (m *Maintainer) Stats() Run {
	r := m.run
	r.SimEvals = m.evals.Load()
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
		SimEvals:      m.evals.Load(),
		Inserts:       m.inserts,
		Rebuilds:      m.rebuilds,
		RebuiltUsers:  m.rebuiltUsers,
		Iterations:    int64(m.run.Iterations),
		WallNs:        m.run.WallTime.Nanoseconds(),
		Publishes:     m.publishes,
		PagesCopied:   m.pagesCopied,
		PagesShared:   m.pagesShared,
		EntriesCopied: m.entriesCopied,
		PublishNs:     m.publishNs,
		LastPublishNs: m.lastPublishNs,
	}
}
