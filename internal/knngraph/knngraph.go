// Package knngraph defines the directed KNN graph produced by the
// construction algorithms and the recall metric used to score it against
// the exact graph (paper §III-B).
//
// The graph is a chunked persistent CSR: users are partitioned into
// fixed-size pages (PageUsers rows each), every page holding its own
// row-boundary array plus its slice of the entries arena, and the Graph
// is just the immutable page table. A graph built in one shot (New,
// FromSet, the codecs) lays all pages over two contiguous flat arrays —
// internal/arena's layout, which is also the on-disk layout — so the
// paging costs nothing but the table itself. A graph derived from a
// previous one (PatchFrom) shares every page without a dirty user and
// materializes only the dirty ones, which is what makes snapshot
// publication O(dirty pages) instead of O(|U|).
//
// A graph is immutable once built; pages may therefore be shared freely
// between successive graphs, and serving code reads Neighbors views that
// alias page storage. That immutability is what lets a kiff.Snapshot
// publish a graph to concurrent readers without locks.
package knngraph

import (
	"bufio"
	"fmt"
	"io"
	"slices"

	"kiff/internal/knnheap"
)

// Neighbor is one edge of the KNN graph, annotated with the similarity
// that justified it.
//
// The field order and types are load-bearing: on 64-bit little-endian
// hosts the struct layout (ID at offset 0, 4 bytes padding, Sim at
// offset 8) matches the on-disk edge record of the version-2 binary
// format, which is what lets mapped graphs view records in place (see
// mapped.go). Changing the struct requires a format version bump.
type Neighbor struct {
	// ID is the neighbor's user ID.
	ID uint32
	// Sim is the similarity between the list owner and ID.
	Sim float64
}

const (
	// pageShift sets the page granularity: 1<<pageShift users per page.
	// The trade: larger pages amortize the page table but make one dirty
	// user copy more of its neighbors' rows at publication. 64 keeps
	// copy-on-write sharing meaningful even for populations in the low
	// thousands (a page is ~64·k edge records, ~10KB at k = 10); at
	// millions of users the table is tens of thousands of slim structs,
	// still trivially walkable.
	pageShift = 6
	// PageUsers is the number of users per graph page.
	PageUsers = 1 << pageShift
	pageMask  = PageUsers - 1
)

// page is one immutable chunk of up to PageUsers consecutive users' rows.
// offsets holds the rows' boundaries into entries — len(rows)+1 values
// whose base offsets[0] is subtracted at lookup, so a page sliced out of
// a flat arena (offsets carry arena-global values) and a page built on
// its own arrays (offsets start at 0) read identically.
type page struct {
	offsets []int64
	entries []Neighbor
}

// rows returns the number of users the page covers.
func (p *page) rows() int { return len(p.offsets) - 1 }

// Graph is a directed k-NN graph: Neighbors(u) holds u's neighbors sorted
// by (similarity desc, ID asc). Storage is a page table of immutable
// chunks (see the package comment); the zero value is an empty graph.
type Graph struct {
	k        int
	numUsers int
	numEdges int
	pages    []page
}

// New assembles a graph from per-user neighbor lists, flattening them
// into one CSR arena. Lists must already be sorted by (sim desc, ID asc);
// use Validate to check the result when the source is untrusted.
func New(k int, lists [][]Neighbor) *Graph {
	offsets := make([]int64, len(lists)+1)
	total := 0
	for _, l := range lists {
		total += len(l)
	}
	entries := make([]Neighbor, 0, total)
	for u, l := range lists {
		entries = append(entries, l...)
		offsets[u+1] = int64(len(entries))
	}
	return fromParts(k, offsets, entries)
}

// fromParts pages pre-built flat CSR arrays: every page aliases its slice
// of the shared arrays, so construction is O(numPages) slicing on top of
// whatever built the arrays (FromSet, the codecs, the mmap view).
func fromParts(k int, offsets []int64, entries []Neighbor) *Graph {
	n := 0
	if len(offsets) > 0 {
		n = len(offsets) - 1
	}
	g := &Graph{k: k, numUsers: n, numEdges: len(entries), pages: make([]page, numPages(n))}
	for p := range g.pages {
		lo, hi := p<<pageShift, min((p+1)<<pageShift, n)
		g.pages[p] = page{
			offsets: offsets[lo : hi+1 : hi+1],
			entries: entries[offsets[lo]:offsets[hi]:offsets[hi]],
		}
	}
	return g
}

// numPages returns the page count covering n users.
func numPages(n int) int { return (n + pageMask) >> pageShift }

// K returns the neighborhood bound the graph was built with.
func (g *Graph) K() int { return g.k }

// NumUsers returns the number of nodes.
func (g *Graph) NumUsers() int { return g.numUsers }

// NumEdges returns the total number of directed edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// NumPages returns the number of chunks in the page table — the unit the
// copy-on-write publication stats (PatchStats) count in.
func (g *Graph) NumPages() int { return len(g.pages) }

// Neighbors returns u's neighbor list as a view into page storage (do
// not mutate). The view's capacity is clamped, so appending to it cannot
// clobber the next user's list. Two loads: the page table entry, then
// the row bounds within it.
func (g *Graph) Neighbors(u uint32) []Neighbor {
	pg := &g.pages[u>>pageShift]
	i := u & pageMask
	base := pg.offsets[0]
	lo, hi := pg.offsets[i]-base, pg.offsets[i+1]-base
	return pg.entries[lo:hi:hi]
}

// Views materializes every per-user view in one [][]Neighbor (data stays
// shared with the arena). It exists for callers that consume whole-graph
// list shapes, like BuildExact.
func (g *Graph) Views() [][]Neighbor {
	out := make([][]Neighbor, g.NumUsers())
	for u := range out {
		out[u] = g.Neighbors(uint32(u))
	}
	return out
}

// FromSet snapshots a heap set into a Graph. The heaps are read under
// their locks, so FromSet may run while another goroutine still updates
// them (used by per-iteration convergence traces). The export lands in
// two flat arrays — no per-user allocation — which fromParts then pages.
func FromSet(s *knnheap.Set) *Graph {
	n := s.Len()
	offsets, raw := s.Export(make([]int64, 0, n+1), make([]knnheap.Entry, 0, n*s.K()))
	entries := make([]Neighbor, len(raw))
	for i, e := range raw {
		entries[i] = Neighbor{ID: e.ID, Sim: e.Sim}
	}
	for u := 0; u < n; u++ {
		SortNeighbors(entries[offsets[u]:offsets[u+1]])
	}
	return fromParts(s.K(), offsets, entries)
}

// PatchStats reports how a publication was assembled: how many pages the
// new graph shares with its predecessor versus had to copy out of the
// heaps — the copy-on-write observability record surfaced by /stats and
// the publication benches.
type PatchStats struct {
	// PagesShared counts pages adopted verbatim from the previous graph.
	PagesShared int
	// PagesCopied counts pages rebuilt from the heap set.
	PagesCopied int
	// EntriesCopied counts the edge records landing in copied pages —
	// with the offsets, the bytes a publication actually writes.
	EntriesCopied int
}

// PatchFrom snapshots a heap set into a Graph by patching a previously
// exported one: pages containing no dirty user are shared with prev, and
// within a rebuilt page only the dirty rows are re-exported from the
// heaps — clean rows are unchanged since prev by the dirty-set contract,
// so their already-sorted records are block-copied from prev's page.
// dirty must list every user whose heap changed since prev was exported
// (knnheap's TrackDirty/DrainDirty produce exactly that); users appended
// since (s.Len() > prev.NumUsers()) are implicitly dirty. Cost is
// O(copied pages · PageUsers · k) memory movement plus O(dirty rows ·
// k log k) heap export, not O(|U|).
//
// prev must itself have been exported from the same heap set's history —
// publication N patches from publication N−1, with the first publication
// a full FromSet. The result shares page storage with prev: prev (and
// anything backing it) must stay reachable and immutable, so never patch
// from a graph whose backing may be unmapped (see Mapped.Close).
func PatchFrom(prev *Graph, s *knnheap.Set, dirty []uint32) (*Graph, PatchStats) {
	if prev.k != s.K() {
		panic(fmt.Sprintf("knngraph: PatchFrom across k: prev has k=%d, set has k=%d", prev.k, s.K()))
	}
	n := s.Len()
	if n < prev.numUsers {
		panic(fmt.Sprintf("knngraph: PatchFrom shrank: prev covers %d users, set has %d", prev.numUsers, n))
	}
	pages := numPages(n)
	dirtyPage := make([]bool, pages)
	dirtyRow := make(map[uint32]struct{}, len(dirty))
	for _, u := range dirty {
		if int(u) < n {
			dirtyPage[u>>pageShift] = true
			dirtyRow[u] = struct{}{}
		}
	}
	pt := patcher{prev: prev, s: s, dirtyRow: dirtyRow}
	g := &Graph{k: s.K(), numUsers: n, pages: make([]page, pages)}
	var st PatchStats
	for p := range g.pages {
		lo, hi := p<<pageShift, min((p+1)<<pageShift, n)
		// A page is adoptable only if prev covered exactly the same rows:
		// pages overlapping [prev.numUsers, n) grew and must be rebuilt.
		if !dirtyPage[p] && p < len(prev.pages) && prev.pages[p].rows() == hi-lo {
			g.pages[p] = prev.pages[p]
			st.PagesShared++
		} else {
			g.pages[p] = pt.patchPage(lo, hi)
			st.PagesCopied++
			st.EntriesCopied += len(g.pages[p].entries)
		}
		g.numEdges += len(g.pages[p].entries)
	}
	return g, st
}

// patcher rebuilds dirty pages row by row, reusing one pair of scratch
// export buffers across every dirty row of a publication.
type patcher struct {
	prev     *Graph
	s        *knnheap.Set
	dirtyRow map[uint32]struct{}
	rowOff   []int64
	rowEnt   []knnheap.Entry
}

// patchPage materializes users [lo, hi) into a standalone page (own
// boundary and entry arrays, offsets based at 0). Rows in the dirty set
// or beyond prev's coverage are exported from the heaps and sorted; the
// rest are copied verbatim from prev, whose rows are already in canonical
// order.
func (pt *patcher) patchPage(lo, hi int) page {
	offsets := make([]int64, 1, hi-lo+1)
	entries := make([]Neighbor, 0, (hi-lo)*pt.s.K())
	for u := lo; u < hi; u++ {
		if _, dirty := pt.dirtyRow[uint32(u)]; !dirty && u < pt.prev.numUsers {
			entries = append(entries, pt.prev.Neighbors(uint32(u))...)
		} else {
			start := len(entries)
			pt.rowOff, pt.rowEnt = pt.s.ExportRange(pt.rowOff[:0], pt.rowEnt[:0], u, u+1)
			for _, e := range pt.rowEnt {
				entries = append(entries, Neighbor{ID: e.ID, Sim: e.Sim})
			}
			SortNeighbors(entries[start:])
		}
		offsets = append(offsets, int64(len(entries)))
	}
	return page{offsets: offsets, entries: entries}
}

// CompareNeighbors is the canonical edge ordering of the module
// (similarity descending, ties broken by ascending ID); every sorted
// neighbor list — graph rows, query results, ground truth — uses it.
func CompareNeighbors(a, b Neighbor) int {
	switch {
	case a.Sim > b.Sim:
		return -1
	case a.Sim < b.Sim:
		return 1
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	}
	return 0
}

// SortNeighbors sorts a neighbor list into the canonical order.
func SortNeighbors(list []Neighbor) {
	slices.SortFunc(list, CompareNeighbors)
}

// TopK keeps the best k entries of a stream under CompareNeighbors: a
// bounded heap whose root is the worst entry kept, so an entry that does
// not make the cut costs one comparison. Entries must have distinct IDs;
// the order is then total and the kept set equals the first k of the
// fully sorted stream.
type TopK struct {
	h []Neighbor
	k int
}

// NewTopK starts a selection of at most k entries in buf's backing array
// (appending past its capacity allocates). Size buf by what the stream
// can deliver, not by a caller-supplied k.
func NewTopK(buf []Neighbor, k int) TopK { return TopK{h: buf[:0], k: k} }

// Push offers one entry.
func (t *TopK) Push(nb Neighbor) {
	h := t.h
	if len(h) < t.k {
		h = append(h, nb)
		for i := len(h) - 1; i > 0; {
			p := (i - 1) / 2
			if CompareNeighbors(h[i], h[p]) <= 0 {
				break
			}
			h[i], h[p] = h[p], h[i]
			i = p
		}
		t.h = h
		return
	}
	if len(h) == 0 || CompareNeighbors(nb, h[0]) >= 0 {
		return
	}
	h[0] = nb
	for i := 0; ; {
		w := 2*i + 1
		if w >= len(h) {
			break
		}
		if r := w + 1; r < len(h) && CompareNeighbors(h[r], h[w]) > 0 {
			w = r
		}
		if CompareNeighbors(h[w], h[i]) <= 0 {
			break
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}

// Sorted returns the kept entries in canonical order. It reorders the
// selection's storage, so push nothing afterwards.
func (t *TopK) Sorted() []Neighbor {
	SortNeighbors(t.h)
	return t.h
}

// Validate checks structural invariants: no self-loops, no duplicate
// neighbors, lists sorted and bounded by K.
func (g *Graph) Validate() error {
	n := g.NumUsers()
	for u := 0; u < n; u++ {
		list := g.Neighbors(uint32(u))
		if len(list) > g.k {
			return fmt.Errorf("knngraph: user %d has %d > k neighbors", u, len(list))
		}
		// Duplicate detection: allocation-free quadratic scan for the
		// typical small k, map-based beyond it — k comes from untrusted
		// codec input, so the quadratic path must not be unbounded.
		var seen map[uint32]bool
		if len(list) > 64 {
			seen = make(map[uint32]bool, len(list))
		}
		for i, nb := range list {
			if int(nb.ID) == u {
				return fmt.Errorf("knngraph: user %d has a self-loop", u)
			}
			if seen != nil {
				if seen[nb.ID] {
					return fmt.Errorf("knngraph: user %d lists %d twice", u, nb.ID)
				}
				seen[nb.ID] = true
			} else {
				for j := 0; j < i; j++ {
					if list[j].ID == nb.ID {
						return fmt.Errorf("knngraph: user %d lists %d twice", u, nb.ID)
					}
				}
			}
			if i > 0 {
				prev := list[i-1]
				if prev.Sim < nb.Sim || (prev.Sim == nb.Sim && prev.ID > nb.ID) {
					return fmt.Errorf("knngraph: user %d list unsorted at %d", u, i)
				}
			}
		}
	}
	return nil
}

// Write serializes the graph as text: one "u v sim" edge per line.
func (g *Graph) Write(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# knn graph: %d users, k=%d\n", g.NumUsers(), g.k)
	for u := 0; u < g.NumUsers(); u++ {
		for _, nb := range g.Neighbors(uint32(u)) {
			if _, err := fmt.Fprintf(bw, "%d %d %.6g\n", u, nb.ID, nb.Sim); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}
