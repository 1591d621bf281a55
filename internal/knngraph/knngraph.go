// Package knngraph defines the directed KNN graph produced by the
// construction algorithms and the recall metric used to score it against
// the exact graph (paper §III-B).
//
// The graph is a persistent row table: users are partitioned into
// fixed-size pages (PageUsers rows each), every page an array of
// immutable neighbor-list slices, and the Graph is just the page table
// (internal/arena's paged layout, shared with the dataset view). A graph
// built in one shot (New, FromSet, the codecs) slices its rows out of
// one flat CSR entries array — internal/arena's layout, which is also
// the on-disk layout — so the paging costs one row header per user. A
// graph derived from a previous one (PatchFrom) shares every page
// without a dirty user and, within the other pages, every clean row;
// only the dirty rows are exported afresh, which is what makes snapshot
// publication O(dirty rows) instead of O(|U|).
//
// A graph is immutable once built; pages and rows may therefore be
// shared freely between successive graphs, and serving code reads
// Neighbors views that alias row storage. That immutability is what lets
// a kiff.Snapshot publish a graph to concurrent readers without locks.
package knngraph

import (
	"bufio"
	"fmt"
	"io"
	"slices"

	"kiff/internal/arena"
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
	// pageShift is the page granularity (1<<pageShift users per page),
	// arena.PageShift's: see there for the trade it sets.
	pageShift = arena.PageShift
	// PageUsers is the number of users per graph page.
	PageUsers = 1 << pageShift
	pageMask  = PageUsers - 1
)

// Graph is a directed k-NN graph: Neighbors(u) holds u's neighbors sorted
// by (similarity desc, ID asc). Storage is a page table of immutable
// row slices (see the package comment); the zero value is an empty graph.
type Graph struct {
	k        int
	numUsers int
	numEdges int
	pages    [][][]Neighbor
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

// fromParts pages pre-built flat CSR arrays: every row is a
// capacity-clamped slice of the shared entries array, and every page a
// slice of one row-header array, so construction is two allocations and
// O(|U|) slicing on top of whatever built the arrays (FromSet, the
// codecs, the mmap view).
func fromParts(k int, offsets []int64, entries []Neighbor) *Graph {
	n := 0
	if len(offsets) > 0 {
		n = len(offsets) - 1
	}
	rows := make([][]Neighbor, n)
	for u := range rows {
		lo, hi := offsets[u], offsets[u+1]
		rows[u] = entries[lo:hi:hi]
	}
	g := &Graph{k: k, numUsers: n, numEdges: len(entries), pages: make([][][]Neighbor, numPages(n))}
	for p := range g.pages {
		lo, hi := p<<pageShift, min((p+1)<<pageShift, n)
		g.pages[p] = rows[lo:hi:hi]
	}
	return g
}

// numPages returns the page count covering n users.
func numPages(n int) int { return arena.NumPages(n) }

// K returns the neighborhood bound the graph was built with.
func (g *Graph) K() int { return g.k }

// NumUsers returns the number of nodes.
func (g *Graph) NumUsers() int { return g.numUsers }

// NumEdges returns the total number of directed edges.
func (g *Graph) NumEdges() int { return g.numEdges }

// NumPages returns the number of chunks in the page table — the unit the
// copy-on-write publication stats (PatchStats) count in.
func (g *Graph) NumPages() int { return len(g.pages) }

// Neighbors returns u's neighbor list as a view into row storage (do not
// mutate). The view's capacity is clamped, so appending to it cannot
// clobber another user's list. Two loads: the page table entry, then the
// row header within the page.
func (g *Graph) Neighbors(u uint32) []Neighbor {
	return g.pages[u>>pageShift][u&pageMask]
}

// Views materializes every per-user view in one [][]Neighbor (data stays
// shared with the rows). It exists for callers that consume whole-graph
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
// new graph shares with its predecessor versus had to replace, and how
// many edge records it exported from the heaps — the copy-on-write
// observability record surfaced by /stats and the publication benches.
type PatchStats struct {
	// PagesShared counts pages adopted verbatim from the previous graph.
	PagesShared int
	// PagesCopied counts pages replaced because they hold a dirty row:
	// each is a fresh array of row headers, its clean rows still shared.
	PagesCopied int
	// EntriesCopied counts the edge records exported into dirty rows —
	// with PageUsers row headers per copied page, the bytes a
	// publication actually writes.
	EntriesCopied int
}

// PatchFrom snapshots a heap set into a Graph by patching a previously
// exported one (arena.PatchPages): pages containing no dirty user are
// shared with prev; a page holding one is replaced by a copy of its row
// headers in which only the dirty rows point at freshly exported,
// sorted lists, each its own allocation sized to its length — clean rows
// are unchanged since prev by the dirty-set contract, so they keep
// pointing at prev's storage. dirty must list every user whose heap
// changed since prev was exported (knnheap's TrackDirty/DrainDirty
// produce exactly that); users appended since (s.Len() > prev.NumUsers())
// are implicitly dirty. Cost is O(dirty rows · k log k) export plus
// O(copied pages · PageUsers) header copies and an O(|U|/PageUsers) page
// table copy, not O(|U|·k).
//
// prev must itself have been exported from the same heap set's history —
// publication N patches from publication N−1, with the first publication
// a full FromSet. The result shares page and row storage with prev: prev
// (and anything backing it) must stay reachable and immutable, so never
// patch from a graph whose backing may be unmapped (see Mapped.Close).
func PatchFrom(prev *Graph, s *knnheap.Set, dirty []uint32) (*Graph, PatchStats) {
	if prev.k != s.K() {
		panic(fmt.Sprintf("knngraph: PatchFrom across k: prev has k=%d, set has k=%d", prev.k, s.K()))
	}
	n := s.Len()
	if n < prev.numUsers {
		panic(fmt.Sprintf("knngraph: PatchFrom shrank: prev covers %d users, set has %d", prev.numUsers, n))
	}
	g := &Graph{k: s.K(), numUsers: n, numEdges: prev.numEdges}
	var st PatchStats
	var buf []knnheap.Entry
	g.pages, st.PagesCopied = arena.PatchPages(prev.pages, n, slices.Values(dirty), func(u int, old []Neighbor) []Neighbor {
		buf = s.Neighbors(buf[:0], uint32(u))
		row := make([]Neighbor, len(buf))
		for i, e := range buf {
			row[i] = Neighbor{ID: e.ID, Sim: e.Sim}
		}
		SortNeighbors(row)
		g.numEdges += len(row) - len(old)
		st.EntriesCopied += len(row)
		return row
	})
	st.PagesShared = len(g.pages) - st.PagesCopied
	return g, st
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
