// Package shard partitions a maintained KNN population across N
// independent single-writer maintainers and splices their answers back
// together at query time — the partition-then-merge construction of
// Cluster-and-Conquer applied to KIFF's serving layer.
//
// The decomposition is sound because KIFF's candidate selection is
// pivot-free: a user's relevant candidates are exactly the users it
// shares items with, so a query fanned out to every shard's item-profile
// index discovers the same candidate set the unsharded index would, and
// an exact (unbudgeted) scatter-gather Query returns exactly the
// single-maintainer top-k (see View.Query for the tie-order argument).
// Per-shard KNN *graphs*, by contrast, are shard-local approximations:
// Neighbors(u) answers from u's own shard, which is the
// Cluster-and-Conquer trade — graph quality within a partition for
// insert and rebuild throughput that scales with the shard count,
// because every shard runs its mutations behind its own lock and its
// candidate sets are ~1/N the size.
//
// Ownership is a stable hash of the global user ID (Owner), so the
// user→shard mapping survives AddUser and process restarts: a reloaded
// pool re-derives the same assignment from the manifest's user count
// alone. Global IDs are assigned in increasing order and routed to the
// owner shard in assignment order, which makes each shard's local IDs an
// order-preserving subsequence of the global IDs — the property the
// scatter-gather merge relies on to keep the canonical
// (similarity desc, global ID asc) tie order intact after relabeling.
package shard

import (
	"errors"
	"fmt"
	"sync"
	"sync/atomic"

	"kiff/internal/dataset"
	"kiff/internal/knngraph"
	"kiff/internal/parallel"
	"kiff/internal/runstats"
	"kiff/internal/sparse"
	"kiff/internal/wal"
)

// MaxShards bounds the shard count: enough for any single-process
// deployment, small enough that per-operation fan-out stays sane.
const MaxShards = 1024

// Owner maps a global user ID onto its owning shard: a splitmix64-style
// finalizer over the ID, reduced modulo the shard count. The function is
// pinned — checkpoints record the scheme name ("splitmix64/v1") and a
// reloaded pool re-derives every assignment from it, so changing the
// mixing constants is a manifest-schema break.
func Owner(g uint32, shards int) int {
	x := uint64(g) + 0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(shards))
}

// hashScheme names the Owner function in manifests.
const hashScheme = "splitmix64/v1"

// Reader is one shard's immutable read view — the method subset of
// kiff.Snapshot the scatter-gather layer consumes. A Reader stays valid
// and internally consistent forever, like the snapshot it is.
type Reader interface {
	// Version is the shard's publication sequence number.
	Version() uint64
	// NumUsers is the number of (local) users the view covers.
	NumUsers() int
	// K is the neighborhood size of the shard graph.
	K() int
	// Neighbors returns local user u's shard-local KNN list.
	Neighbors(u uint32) []knngraph.Neighbor
	// Query returns the k most similar local users to an external
	// profile; budget bounds similarity evaluations (negative = exact).
	Query(profile sparse.Vector, k, budget int) ([]knngraph.Neighbor, error)
	// Profile returns local user u's frozen profile and whether u exists
	// in the view. (The scatter-gather layer needs per-user reads only,
	// so readers expose profiles rather than a whole frozen dataset —
	// which also keeps the interface satisfiable by page-shared views.)
	Profile(u uint32) (sparse.Vector, bool)
}

// Maintainer is the per-shard write interface: the method subset of
// kiff.Maintainer the pool drives, plus Reader giving the current
// published view. Implementations are single-writer; the pool serializes
// calls per shard behind the shard lock.
type Maintainer interface {
	InsertBatch(ps []sparse.Vector) ([]uint32, error)
	AddRating(u uint32, item uint32, rating float64) error
	Rebuild(dirty []uint32) error
	Reader() Reader
	Graph() *knngraph.Graph
	Dataset() *dataset.Dataset
	Counters() runstats.Counters
}

// WALMaintainer is the optional durability extension of Maintainer: a
// shard whose maintainer write-ahead-logs its mutations (kiff.Maintainer
// with an attached log implements it). Save uses it to record each
// shard's log horizon in the manifest and to rotate the logs once the
// checkpoint is durably complete — either every shard logs or none; a
// mixed pool is a configuration error Save rejects.
type WALMaintainer interface {
	// WALAttached reports whether a write-ahead log is attached.
	WALAttached() bool
	// WALLastLSN is the shard-local LSN of the last logged mutation.
	WALLastLSN() uint64
	// WALRotate discards the log records a completed checkpoint covers.
	WALRotate() error
	// WALCounters snapshots the log's activity counters (any goroutine).
	WALCounters() wal.Counters
	// WALError is the append failure that fail-stopped the shard, if any
	// (any goroutine).
	WALError() error
	// CloseWAL syncs, closes and detaches the log.
	CloseWAL() error
}

// WALAttached reports whether every shard write-ahead-logs its
// mutations. Mixed pools are rejected at Save; a pool assembled by the
// WAL-aware constructors is always all-or-nothing.
func (p *Pool) WALAttached() bool {
	for _, sl := range p.shards {
		wm, ok := sl.m.(WALMaintainer)
		if !ok || !wm.WALAttached() {
			return false
		}
	}
	return true
}

// WALCounters sums the shards' log counters. The LastLSN field is the
// sum of the per-shard LSNs — still a monotonic mutation counter, just
// not a single log position. Safe from any goroutine.
func (p *Pool) WALCounters() wal.Counters {
	var out wal.Counters
	for _, sl := range p.shards {
		if wm, ok := sl.m.(WALMaintainer); ok && wm.WALAttached() {
			c := wm.WALCounters()
			out.Appended += c.Appended
			out.AppendedBytes += c.AppendedBytes
			out.Fsyncs += c.Fsyncs
			out.AppendErrors += c.AppendErrors
			out.Replayed += c.Replayed
			out.TruncatedBytes += c.TruncatedBytes
			out.LastLSN += c.LastLSN
		}
	}
	return out
}

// WALError returns the append failures that fail-stopped any shard,
// joined, or nil. Safe from any goroutine.
func (p *Pool) WALError() error {
	var errs []error
	for i, sl := range p.shards {
		if wm, ok := sl.m.(WALMaintainer); ok {
			if err := wm.WALError(); err != nil {
				errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
			}
		}
	}
	return errors.Join(errs...)
}

// CloseWAL syncs and closes every shard's log under its shard lock —
// the graceful-shutdown step of a logged pool (mutations must have
// quiesced; a log-less shard is a no-op).
func (p *Pool) CloseWAL() error {
	var errs []error
	for i, sl := range p.shards {
		wm, ok := sl.m.(WALMaintainer)
		if !ok {
			continue
		}
		sl.mu.Lock()
		err := wm.CloseWAL()
		sl.mu.Unlock()
		if err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// Stats is one shard's point-in-time observability record, mirrored into
// an atomic after every pool mutation so /stats-style readers never
// touch the writer's live state.
type Stats struct {
	// Shard is the shard index.
	Shard int
	// Users is the number of users the shard's published view covers.
	Users int
	// Version is the shard's snapshot publication counter.
	Version uint64
	// Counters are the shard's cumulative maintenance counters.
	Counters runstats.Counters
}

// mapping is the immutable global↔local ID translation table, replaced
// wholesale (atomic.Pointer) whenever users are assigned. Appends reuse
// the backing arrays — a published mapping's slices never have elements
// below their length overwritten, so readers holding an old *mapping see
// a consistent prefix.
type mapping struct {
	// owner maps global ID → shard index.
	owner []uint16
	// local maps global ID → index within the owner shard.
	local []uint32
	// global maps (shard, local) → global ID; each row is ascending.
	global [][]uint32
}

// slot pairs one shard's maintainer with its write lock and mirrored
// stats.
type slot struct {
	mu    sync.Mutex
	m     Maintainer
	stats atomic.Pointer[Stats]
}

// refreshStats re-mirrors the shard's observable state. Callers hold the
// shard lock (or are constructing the pool).
func (s *slot) refreshStats(i int) {
	r := s.m.Reader()
	s.stats.Store(&Stats{
		Shard:    i,
		Users:    r.NumUsers(),
		Version:  r.Version(),
		Counters: s.m.Counters(),
	})
}

// Pool hash-partitions users across independent maintainers and serves
// reads by scatter-gather over their published snapshots.
//
// Concurrency model: reads (View, Neighbors, Query, Profile, NumUsers,
// ShardStats) are safe from any goroutine at any time — they load the
// atomic mapping and the shards' atomic snapshots and never block on a
// writer. Writes are safe to issue concurrently too: the pool assigns
// global IDs under a short pool-wide lock, then applies each mutation
// under its owner shard's lock only, so inserts and rebuilds targeting
// different shards genuinely run in parallel. (Each underlying
// maintainer remains single-writer; the shard lock is what enforces it.)
//
// A freshly assigned user becomes visible in two steps: the mapping
// learns the ID first, the owner shard's snapshot catches up when its
// insert completes. In the window between the two, Neighbors returns
// ErrPending for that ID and queries simply do not see it yet — readers
// never observe torn state.
type Pool struct {
	k      int
	shards []*slot

	// mu serializes global ID assignment and mapping publication. Lock
	// order is always pool → shard; no path acquires mu while holding a
	// shard lock.
	mu      sync.Mutex
	mapping atomic.Pointer[mapping]
}

// ErrPending is returned by Neighbors for a user whose ID has been
// assigned but whose owning shard has not yet published the insert — the
// transient window of a concurrent Insert.
var ErrPending = errors.New("shard: user accepted but not yet visible")

// ErrNotFound is returned for user IDs the pool has never assigned.
var ErrNotFound = errors.New("shard: no such user")

// NewPool assembles a pool over already-built per-shard maintainers.
// The shards must have been partitioned with Owner over exactly numUsers
// global IDs, in ascending global order — NewPool re-derives the mapping
// from that contract and rejects maintainers whose populations do not
// match it, which is how a corrupt or mixed-up checkpoint fails fast
// instead of serving misrouted answers. All shards must agree on k.
func NewPool(ms []Maintainer, numUsers int) (*Pool, error) {
	if len(ms) < 1 || len(ms) > MaxShards {
		return nil, fmt.Errorf("shard: pool needs 1..%d shards, got %d", MaxShards, len(ms))
	}
	if numUsers < 0 {
		return nil, fmt.Errorf("shard: negative user count %d", numUsers)
	}
	n := len(ms)
	m := &mapping{
		owner:  make([]uint16, numUsers),
		local:  make([]uint32, numUsers),
		global: make([][]uint32, n),
	}
	for g := 0; g < numUsers; g++ {
		s := Owner(uint32(g), n)
		m.owner[g] = uint16(s)
		m.local[g] = uint32(len(m.global[s]))
		m.global[s] = append(m.global[s], uint32(g))
	}
	p := &Pool{shards: make([]*slot, n)}
	for i, sm := range ms {
		r := sm.Reader()
		if r.NumUsers() != len(m.global[i]) {
			return nil, fmt.Errorf("shard: shard %d holds %d users, the %d-user/%d-shard partition owns %d (checkpoint from a different population?)",
				i, r.NumUsers(), numUsers, n, len(m.global[i]))
		}
		if i == 0 {
			p.k = r.K()
		} else if r.K() != p.k {
			return nil, fmt.Errorf("shard: shard %d has k = %d, shard 0 has k = %d", i, r.K(), p.k)
		}
		p.shards[i] = &slot{m: sm}
		p.shards[i].refreshStats(i)
	}
	p.mapping.Store(m)
	return p, nil
}

// NumShards returns the shard count.
func (p *Pool) NumShards() int { return len(p.shards) }

// K returns the per-shard neighborhood size.
func (p *Pool) K() int { return p.k }

// NumUsers returns the number of assigned global user IDs (including any
// still pending publication by their owner shard).
func (p *Pool) NumUsers() int { return len(p.mapping.Load().owner) }

// Version returns the sum of the shards' snapshot versions — a
// monotonic publication counter for staleness checks, advancing whenever
// any shard republishes.
func (p *Pool) Version() uint64 {
	var v uint64
	for _, s := range p.shards {
		v += s.m.Reader().Version()
	}
	return v
}

// ShardStats returns every shard's mirrored observability record.
// Lock-free; safe from any goroutine.
func (p *Pool) ShardStats() []Stats {
	out := make([]Stats, len(p.shards))
	for i, s := range p.shards {
		out[i] = *s.stats.Load()
	}
	return out
}

// Counters aggregates the per-shard maintenance counters.
func (p *Pool) Counters() runstats.Counters {
	var c runstats.Counters
	for _, s := range p.shards {
		c.Add(s.stats.Load().Counters)
	}
	return c
}

// assign reserves global IDs for n new users and publishes the extended
// mapping, returning the base global ID, the previous mapping length's
// mapping successor, and the per-shard assignment. It locks the involved
// shard slots *before* releasing the pool lock, so per-shard insertion
// order always matches assignment order (local IDs are handed out
// sequentially by the underlying maintainers).
func (p *Pool) assign(n int) (base uint32, perShard map[int][]uint32, locked []int) {
	p.mu.Lock()
	old := p.mapping.Load()
	nm := &mapping{
		owner:  old.owner,
		local:  old.local,
		global: make([][]uint32, len(old.global)),
	}
	copy(nm.global, old.global)
	base = uint32(len(old.owner))
	perShard = make(map[int][]uint32)
	for i := 0; i < n; i++ {
		g := base + uint32(i)
		s := Owner(g, len(p.shards))
		nm.owner = append(nm.owner, uint16(s))
		nm.local = append(nm.local, uint32(len(nm.global[s])))
		nm.global[s] = append(nm.global[s], g)
		perShard[s] = append(perShard[s], g)
	}
	p.mapping.Store(nm)
	locked = make([]int, 0, len(perShard))
	for s := range perShard {
		p.shards[s].mu.Lock()
		locked = append(locked, s)
	}
	p.mu.Unlock()
	return base, perShard, locked
}

// Insert appends a new user, routes it to its owner shard, and returns
// its global ID. The profile is validated before an ID is assigned, so a
// malformed profile never burns a slot in the mapping.
func (p *Pool) Insert(profile sparse.Vector) (uint32, error) {
	ids, err := p.InsertBatch([]sparse.Vector{profile})
	if err != nil {
		return 0, err
	}
	return ids[0], nil
}

// InsertBatch inserts a batch of users, grouping them by owner shard and
// running the per-shard sub-batches in parallel — the insert-throughput
// scaling path. The returned global IDs are in input order (they are the
// contiguous block starting at the current population size). Profiles
// are validated up front; on a validation error nothing is assigned.
func (p *Pool) InsertBatch(profiles []sparse.Vector) ([]uint32, error) {
	for i := range profiles {
		if err := profiles[i].Validate(); err != nil {
			return nil, fmt.Errorf("shard: insert batch: profile %d: %w", i, err)
		}
	}
	if len(profiles) == 0 {
		return nil, nil
	}
	base, perShard, locked := p.assign(len(profiles))
	errs := make([]error, len(locked))
	parallel.For(len(locked), len(locked), func(_, li int) {
		s := locked[li]
		sl := p.shards[s]
		defer sl.mu.Unlock()
		globals := perShard[s]
		ps := make([]sparse.Vector, len(globals))
		for i, g := range globals {
			ps[i] = profiles[g-base]
		}
		ids, err := sl.m.InsertBatch(ps)
		if err != nil {
			errs[li] = fmt.Errorf("shard %d: %w", s, err)
			return
		}
		want := p.mapping.Load()
		for i, g := range globals {
			if ids[i] != want.local[g] {
				panic(fmt.Sprintf("shard: shard %d assigned local ID %d, expected %d — was the maintainer mutated outside the pool?", s, ids[i], want.local[g]))
			}
		}
		sl.refreshStats(s)
	})
	if err := errors.Join(errs...); err != nil {
		return nil, fmt.Errorf("shard: insert batch: %w", err)
	}
	out := make([]uint32, len(profiles))
	for i := range out {
		out[i] = base + uint32(i)
	}
	return out, nil
}

// AddRating records a rating change for an existing user, routed to its
// owner shard. Like Maintainer.AddRating it only marks the user dirty;
// Rebuild refreshes the invalidated neighborhoods.
func (p *Pool) AddRating(g uint32, item uint32, rating float64) error {
	m := p.mapping.Load()
	if int(g) >= len(m.owner) {
		return fmt.Errorf("shard: add rating: user %d out of range (have %d users): %w", g, len(m.owner), ErrNotFound)
	}
	s := int(m.owner[g])
	sl := p.shards[s]
	sl.mu.Lock()
	defer sl.mu.Unlock()
	if err := sl.m.AddRating(m.local[g], item, rating); err != nil {
		return fmt.Errorf("shard: add rating: shard %d: %w", s, err)
	}
	return nil
}

// Rebuild refreshes the neighborhoods invalidated since the last
// Rebuild. dirty lists global user IDs (nil = every user any shard has
// marked dirty). The per-shard rebuilds run in parallel — rebuild
// latency scales down with the shard count both from the parallelism and
// from each shard's item profiles holding ~1/N of the co-raters that
// candidate patching and eviction walk.
func (p *Pool) Rebuild(dirty []uint32) error {
	m := p.mapping.Load()
	var perShard map[int][]uint32
	if dirty != nil {
		perShard = make(map[int][]uint32)
		for _, g := range dirty {
			if int(g) >= len(m.owner) {
				return fmt.Errorf("shard: rebuild: user %d out of range (have %d users): %w", g, len(m.owner), ErrNotFound)
			}
			s := int(m.owner[g])
			perShard[s] = append(perShard[s], m.local[g])
		}
	}
	errs := make([]error, len(p.shards))
	parallel.For(len(p.shards), len(p.shards), func(_, s int) {
		var locals []uint32
		if dirty != nil {
			var ok bool
			if locals, ok = perShard[s]; !ok {
				return
			}
		}
		sl := p.shards[s]
		sl.mu.Lock()
		defer sl.mu.Unlock()
		if err := sl.m.Rebuild(locals); err != nil {
			errs[s] = fmt.Errorf("shard %d: %w", s, err)
			return
		}
		sl.refreshStats(s)
	})
	if err := errors.Join(errs...); err != nil {
		return fmt.Errorf("shard: rebuild: %w", err)
	}
	return nil
}
