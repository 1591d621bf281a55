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
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"kiff/internal/dataset"
	"kiff/internal/fsio"
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
	// Metric is the canonical name of the similarity metric the shard
	// scores with.
	Metric() string
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
//
// The WAL methods are the shard's durability: Pool.OpenWAL attaches the
// logs, and Save uses them to record each shard's log horizon in the
// manifest and to rotate the logs once the checkpoint is durably
// complete — either every shard logs or none; a mixed pool (one whose
// OpenWAL failed halfway) is an error Save rejects.
type Maintainer interface {
	InsertBatch(ps []sparse.Vector) ([]uint32, error)
	AddRating(u uint32, item uint32, rating float64) error
	Rebuild(dirty []uint32) error
	Reader() Reader
	Graph() *knngraph.Graph
	Dataset() *dataset.Dataset
	Counters() runstats.Counters

	// OpenWAL opens (creating if absent) the log at path, replays the
	// records above opts.FromLSN onto the maintainer, and attaches it.
	OpenWAL(path string, opts wal.Options) (wal.ReplayStats, error)
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
// mutations. Mixed pools are rejected at Save; OpenWAL attaches every
// shard's log or fails.
func (p *Pool) WALAttached() bool {
	for _, sl := range p.shards {
		if !sl.m.WALAttached() {
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
		if sl.m.WALAttached() {
			c := sl.m.WALCounters()
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
		if err := sl.m.WALError(); err != nil {
			errs = append(errs, fmt.Errorf("shard %d: %w", i, err))
		}
	}
	return errors.Join(errs...)
}

// OpenWAL attaches a write-ahead log to every shard — the one attach
// path of a logged pool, whatever it was constructed from. Shard i's log
// is WalFile(i) under dir, created if absent; the shards open their logs
// and replay the records above their horizon in parallel. The horizon is
// the wal_lsns of the checkpoint the pool was loaded from (Load), or the
// start of the log for a pool built any other way (a cold build is
// deterministic in its input, so replaying a whole log on top of it
// reproduces the pre-crash state).
//
// Replayed inserts grow the shards behind the pool's back, so OpenWAL
// then re-derives the user→shard mapping over the grown population and
// cross-checks every shard against it, as NewPool does: logs that do not
// belong to this pool fail here instead of serving. Logs written under
// another shard count carry another partition's local IDs, so before
// opening anything OpenWAL claims dir for this shard count (claimWALDir)
// and refuses a directory written under another one. On any error the
// pool must be discarded.
func (p *Pool) OpenWAL(dir string, opts wal.Options) (wal.ReplayStats, error) {
	if err := claimWALDir(dir, len(p.shards)); err != nil {
		return wal.ReplayStats{}, err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	stats := make([]wal.ReplayStats, len(p.shards))
	errs := make([]error, len(p.shards))
	parallel.For(len(p.shards), len(p.shards), func(_, i int) {
		sl := p.shards[i]
		so := opts
		so.FromLSN = 0
		if p.walFrom != nil {
			so.FromLSN = p.walFrom[i]
		}
		sl.mu.Lock()
		defer sl.mu.Unlock()
		st, err := sl.m.OpenWAL(filepath.Join(dir, WalFile(i)), so)
		if err != nil {
			errs[i] = fmt.Errorf("shard %d: %w", i, err)
			return
		}
		stats[i] = st
		sl.refreshStats(i)
	})
	if err := errors.Join(errs...); err != nil {
		return wal.ReplayStats{}, fmt.Errorf("shard: open wal: %w", err)
	}
	var total wal.ReplayStats
	users := 0
	rs := make([]Reader, len(p.shards))
	for i, sl := range p.shards {
		rs[i] = sl.m.Reader()
		users += rs[i].NumUsers()
		total.Replayed += stats[i].Replayed
		total.ReplayedInserts += stats[i].ReplayedInserts
		total.Skipped += stats[i].Skipped
		total.TruncatedBytes += stats[i].TruncatedBytes
	}
	m, err := partition(rs, users)
	if err != nil {
		return total, fmt.Errorf("shard: open wal: %w", err)
	}
	p.mapping.Store(m)
	return total, nil
}

// walFileRe matches the per-shard log names WalFile produces.
var walFileRe = regexp.MustCompile(`^wal\.(\d+)\.kfl$`)

// walShardsFile names the marker that records, next to the logs, the
// shard count of the pool that writes a WAL directory.
const walShardsFile = "wal.shards"

// claimWALDir refuses a log directory holding logs that were not
// written by an n-shard pool — the single-log wal.kfl of older releases,
// a wal.<i>.kfl with i ≥ n, or a walShardsFile marker naming another
// count — and otherwise marks it as n-shard, durably, so that a later
// pool of another size is refused even before its logs disagree. A
// directory without a marker (logs of an older release, or none yet)
// passes on its log names alone and is then marked.
func claimWALDir(dir string, n int) error {
	entries, err := os.ReadDir(dir)
	if err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("shard: open wal: %w", err)
	}
	var foreign []string
	for _, e := range entries {
		name := e.Name()
		if name == "wal.kfl" {
			foreign = append(foreign, name)
		} else if m := walFileRe.FindStringSubmatch(name); m != nil {
			if i, err := strconv.Atoi(m[1]); err != nil || i >= n {
				foreign = append(foreign, name)
			}
		}
	}
	if len(foreign) > 0 {
		slices.Sort(foreign)
		return fmt.Errorf("shard: open wal: %s holds %v, written under a different shard count than this %d-shard pool (see the migration steps in docs/OPERATIONS.md)",
			dir, foreign, n)
	}
	marker := filepath.Join(dir, walShardsFile)
	raw, err := os.ReadFile(marker)
	if err == nil {
		got, err := strconv.Atoi(strings.TrimSpace(string(raw)))
		if err != nil {
			return fmt.Errorf("shard: open wal: %s does not hold a shard count: %w", marker, err)
		}
		if got != n {
			return fmt.Errorf("shard: open wal: %s records %d shards, this pool has %d (restart with the shard count the logs were written under)",
				marker, got, n)
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return fmt.Errorf("shard: open wal: %w", err)
	}
	if err := fsio.WriteDurable(marker, func(f *os.File) error {
		_, err := fmt.Fprintf(f, "%d\n", n)
		return err
	}); err != nil {
		return fmt.Errorf("shard: open wal: %w", err)
	}
	return nil
}

// CloseWAL syncs and closes every shard's log under its shard lock —
// the graceful-shutdown step of a logged pool (mutations must have
// quiesced; a log-less shard is a no-op).
func (p *Pool) CloseWAL() error {
	var errs []error
	for i, sl := range p.shards {
		sl.mu.Lock()
		err := sl.m.CloseWAL()
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
	metric string
	shards []*slot
	// walFrom holds the per-shard log horizons of the checkpoint the pool
	// was loaded from (nil: replay whole logs); read by OpenWAL.
	walFrom []uint64

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
// instead of serving misrouted answers. All shards must agree on k and
// on the metric.
func NewPool(ms []Maintainer, numUsers int) (*Pool, error) {
	rs := make([]Reader, len(ms))
	for i, sm := range ms {
		rs[i] = sm.Reader()
	}
	m, err := partition(rs, numUsers)
	if err != nil {
		return nil, err
	}
	p := &Pool{k: rs[0].K(), metric: rs[0].Metric(), shards: make([]*slot, len(ms))}
	for i, sm := range ms {
		p.shards[i] = &slot{m: sm}
		p.shards[i].refreshStats(i)
	}
	p.mapping.Store(m)
	return p, nil
}

// partition derives the Owner assignment of numUsers global IDs over
// len(rs) shards and checks every shard's population against it, and
// its k and metric against shard 0's — the contract NewPool, NewView and
// OpenWAL share.
func partition(rs []Reader, numUsers int) (*mapping, error) {
	n := len(rs)
	if n < 1 || n > MaxShards {
		return nil, fmt.Errorf("shard: pool needs 1..%d shards, got %d", MaxShards, n)
	}
	if numUsers < 0 {
		return nil, fmt.Errorf("shard: negative user count %d", numUsers)
	}
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
	k, metric := rs[0].K(), rs[0].Metric()
	for i, r := range rs {
		if r.NumUsers() != len(m.global[i]) {
			return nil, fmt.Errorf("shard: shard %d holds %d users, the %d-user/%d-shard partition owns %d (checkpoint from a different population?)",
				i, r.NumUsers(), numUsers, n, len(m.global[i]))
		}
		if r.K() != k {
			return nil, fmt.Errorf("shard: shard %d has k = %d, shard 0 has k = %d", i, r.K(), k)
		}
		if r.Metric() != metric {
			return nil, fmt.Errorf("shard: shard %d scores with metric %q, shard 0 with %q", i, r.Metric(), metric)
		}
	}
	return m, nil
}

// NumShards returns the shard count.
func (p *Pool) NumShards() int { return len(p.shards) }

// K returns the per-shard neighborhood size.
func (p *Pool) K() int { return p.k }

// Metric returns the canonical name of the similarity metric every
// shard maintains its graph under.
func (p *Pool) Metric() string { return p.metric }

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
