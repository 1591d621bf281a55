// Package knnheap implements the bounded per-user neighborhood heaps used
// by all KNN construction algorithms: "the current approximation k̂nnu of
// each user u's neighborhood is stored as a heap of maximum size k, with
// the similarity between u and its neighbors used as priority" (paper
// §III-C).
//
// Entries are ordered by the total order (similarity desc, ID asc). Using
// a total order — rather than similarity alone — makes the retained top-k
// set independent of insertion order even under similarity ties, so
// parallel runs produce identical graphs.
//
// Beyond the batch-construction operations, the set supports the
// append-only population growth (Grow) and targeted entry removal
// (Remove, Clear) that incremental graph maintenance needs.
package knnheap

import "sync"

// Entry is one neighbor candidate held in a heap. New is the NN-Descent
// incremental-join flag (true until the entry has participated in a local
// join); KIFF and HyRec ignore it.
type Entry struct {
	ID  uint32
	Sim float64
	New bool
}

// worse reports whether a is a strictly worse neighbor than b under the
// total order (lower similarity, then higher ID).
func worse(a, b Entry) bool {
	if a.Sim != b.Sim {
		return a.Sim < b.Sim
	}
	return a.ID > b.ID
}

// Heap is a single bounded neighborhood: a min-heap whose root is the
// worst retained neighbor. The zero value is unusable; heaps are created
// through NewSet, which backs every heap's bounded entry storage with one
// shared arena — two allocations for the whole population instead of two
// per user, and neighboring users' entries adjacent in memory.
type Heap struct {
	mu      sync.Mutex
	entries []Entry
}

// Set is the collection of one heap per user, all bounded by the same k.
//
// A Set optionally tracks which users' heaps changed (TrackDirty): the
// copy-on-write snapshot publication path drains that dirty set at export
// time to clone only the graph pages containing changed users. Tracking
// is opt-in because the parallel cold build mutates heaps from many
// goroutines; the maintenance layer enables it once construction is done
// and it holds the single-writer contract from then on.
type Set struct {
	k     int
	heaps []Heap

	// Dirty tracking (TrackDirty/DrainDirty). stamp[u] == epoch means u
	// is already recorded in dirty for the current drain interval, so a
	// user mutated many times between two publications is listed once.
	// Only the single writer touches these; concurrent readers (Export,
	// Neighbors) never do.
	track bool
	epoch uint32
	stamp []uint32
	dirty []uint32
}

// TrackDirty starts recording which users' heaps change. Call it right
// after the state being tracked against was exported in full (the first
// snapshot publication): from then on, every Update/Remove/Clear that
// changes a heap — and every user added by Grow — lands in the dirty set
// until DrainDirty collects it. Tracking requires the single-writer
// contract: no concurrent mutations after TrackDirty.
func (s *Set) TrackDirty() {
	s.track = true
	s.epoch = 1
	s.stamp = make([]uint32, len(s.heaps))
	s.dirty = s.dirty[:0]
}

// DrainDirty appends the users whose heaps changed since the previous
// drain (or since TrackDirty) to dst and resets the dirty set — the
// publication-time harvest. Order is first-touch order; IDs are unique.
func (s *Set) DrainDirty(dst []uint32) []uint32 {
	dst = append(dst, s.dirty...)
	s.dirty = s.dirty[:0]
	s.epoch++
	if s.epoch == 0 {
		// The epoch counter wrapped: old stamps would alias the new
		// interval, so reset them all and restart at 1.
		clear(s.stamp)
		s.epoch = 1
	}
	return dst
}

// markDirty records a change to u's heap. Writer-side only (guarded by
// the TrackDirty contract), so the Set-level dirty list needs no lock
// even though callers hold only the per-heap lock.
func (s *Set) markDirty(u uint32) {
	if !s.track || s.stamp[u] == s.epoch {
		return
	}
	s.stamp[u] = s.epoch
	s.dirty = append(s.dirty, u)
}

// NewSet creates n empty heaps of capacity k.
func NewSet(n, k int) *Set {
	if n < 0 || k < 1 {
		panic("knnheap: NewSet requires n ≥ 0 and k ≥ 1")
	}
	s := &Set{k: k, heaps: make([]Heap, n)}
	backing := make([]Entry, n*k)
	for i := range s.heaps {
		lo := i * k
		s.heaps[i].entries = backing[lo : lo : lo+k]
	}
	return s
}

// Grow appends extra empty heaps for users appended to the population.
// It must not run concurrently with other Set operations (incremental
// maintenance is single-writer); existing heaps are unaffected. Each Grow
// batch gets its own entry arena.
func (s *Set) Grow(extra int) {
	if extra < 0 {
		panic("knnheap: Grow requires extra ≥ 0")
	}
	backing := make([]Entry, extra*s.k)
	base := len(s.heaps)
	for i := 0; i < extra; i++ {
		lo := i * s.k
		s.heaps = append(s.heaps, Heap{entries: backing[lo : lo : lo+s.k]})
	}
	if s.track {
		s.stamp = append(s.stamp, make([]uint32, extra)...)
		for i := 0; i < extra; i++ {
			// A new user has no previously published page; its page must
			// be (re)built at the next publication.
			s.markDirty(uint32(base + i))
		}
	}
}

// K returns the neighborhood bound.
func (s *Set) K() int { return s.k }

// Len returns the number of heaps.
func (s *Set) Len() int { return len(s.heaps) }

// Size returns the current number of neighbors of user u.
func (s *Set) Size(u uint32) int {
	h := &s.heaps[u]
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.entries)
}

// Update implements UPDATENN of Algorithm 1 (lines 14–16): offer (id, sim)
// to user u's heap and report 1 if the neighborhood changed, 0 otherwise.
// A candidate already present leaves the heap unchanged; a candidate worse
// than the current root of a full heap is rejected.
func (s *Set) Update(u uint32, id uint32, sim float64) int {
	return s.update(u, Entry{ID: id, Sim: sim, New: true})
}

func (s *Set) update(u uint32, e Entry) int {
	h := &s.heaps[u]
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.entries {
		if h.entries[i].ID == e.ID {
			return 0
		}
	}
	if len(h.entries) < s.k {
		h.entries = append(h.entries, e)
		h.siftUp(len(h.entries) - 1)
		s.markDirty(u)
		return 1
	}
	if !worse(e, h.entries[0]) {
		h.entries[0] = e
		h.siftDown(0)
		s.markDirty(u)
		return 1
	}
	return 0
}

// Remove deletes id from u's heap, reporting whether it was present.
// Incremental maintenance uses it to evict entries whose similarity went
// stale after a profile change, before re-offering the fresh value.
func (s *Set) Remove(u uint32, id uint32) bool {
	h := &s.heaps[u]
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.entries {
		if h.entries[i].ID != id {
			continue
		}
		last := len(h.entries) - 1
		h.entries[i] = h.entries[last]
		h.entries = h.entries[:last]
		if i < last {
			// The displaced element may need to move either way.
			h.siftDown(i)
			h.siftUp(i)
		}
		s.markDirty(u)
		return true
	}
	return false
}

// Clear empties u's heap (used when a user's neighborhood is rebuilt from
// scratch after its profile changed).
func (s *Set) Clear(u uint32) {
	h := &s.heaps[u]
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.entries) > 0 {
		s.markDirty(u)
	}
	h.entries = h.entries[:0]
}

// Worst returns the root (worst retained neighbor) of u's heap and whether
// the heap is non-empty.
func (s *Set) Worst(u uint32) (Entry, bool) {
	h := &s.heaps[u]
	h.mu.Lock()
	defer h.mu.Unlock()
	if len(h.entries) == 0 {
		return Entry{}, false
	}
	return h.entries[0], true
}

// Contains reports whether id is currently a neighbor of u.
func (s *Set) Contains(u uint32, id uint32) bool {
	h := &s.heaps[u]
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.entries {
		if h.entries[i].ID == id {
			return true
		}
	}
	return false
}

// Neighbors appends u's current neighbors to dst in arbitrary (heap)
// order and returns the extended slice.
func (s *Set) Neighbors(dst []Entry, u uint32) []Entry {
	h := &s.heaps[u]
	h.mu.Lock()
	defer h.mu.Unlock()
	return append(dst, h.entries...)
}

// Export appends every heap's entries to entries (per heap, in arbitrary
// heap order) and the CSR row offsets to offsets, so a snapshot of the
// whole set lands in two contiguous arrays instead of one slice per user.
// The appended offsets are relative to the entries slice passed in.
// Each heap is read under its own lock; like Neighbors, Export may run
// while another goroutine still updates the set, and each row is then
// internally consistent even if the set as a whole keeps moving.
func (s *Set) Export(offsets []int64, entries []Entry) ([]int64, []Entry) {
	offsets = append(offsets, int64(len(entries)))
	for i := range s.heaps {
		h := &s.heaps[i]
		h.mu.Lock()
		entries = append(entries, h.entries...)
		h.mu.Unlock()
		offsets = append(offsets, int64(len(entries)))
	}
	return offsets, entries
}

// IDs appends the IDs of u's current neighbors to dst.
func (s *Set) IDs(dst []uint32, u uint32) []uint32 {
	h := &s.heaps[u]
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.entries {
		dst = append(dst, h.entries[i].ID)
	}
	return dst
}

// CollectFlagged appends the IDs of u's neighbors to newIDs or oldIDs
// according to their New flag, clearing the flags of the entries reported
// as new. This is the per-iteration flag harvest of NN-Descent's
// incremental local join.
func (s *Set) CollectFlagged(newIDs, oldIDs []uint32, u uint32) ([]uint32, []uint32) {
	h := &s.heaps[u]
	h.mu.Lock()
	defer h.mu.Unlock()
	for i := range h.entries {
		if h.entries[i].New {
			newIDs = append(newIDs, h.entries[i].ID)
			h.entries[i].New = false
		} else {
			oldIDs = append(oldIDs, h.entries[i].ID)
		}
	}
	return newIDs, oldIDs
}

func (h *Heap) siftUp(i int) {
	for i > 0 {
		parent := (i - 1) / 2
		if !worse(h.entries[i], h.entries[parent]) {
			break
		}
		h.entries[i], h.entries[parent] = h.entries[parent], h.entries[i]
		i = parent
	}
}

func (h *Heap) siftDown(i int) {
	n := len(h.entries)
	for {
		l, r := 2*i+1, 2*i+2
		smallest := i
		if l < n && worse(h.entries[l], h.entries[smallest]) {
			smallest = l
		}
		if r < n && worse(h.entries[r], h.entries[smallest]) {
			smallest = r
		}
		if smallest == i {
			return
		}
		h.entries[i], h.entries[smallest] = h.entries[smallest], h.entries[i]
		i = smallest
	}
}
