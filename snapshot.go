package kiff

import (
	"fmt"
	"io"

	"kiff/internal/core"
	"kiff/internal/dataset"
	"kiff/internal/knngraph"
	"kiff/internal/similarity"
)

// Snapshot is an immutable, consistent view of a maintained KNN graph and
// the dataset state it was built against: the serving-side counterpart of
// the Maintainer. The Maintainer publishes a fresh Snapshot through an
// atomic pointer after every mutation batch (Insert, InsertBatch,
// Rebuild), so any number of reader goroutines can call Neighbors and
// Query lock-free — and keep using the Snapshot they hold for as long as
// they like — while the single writer keeps maintaining the live graph.
//
// Consistency contract: the graph and dataset inside one Snapshot belong
// to the same publication point. Rating changes recorded by AddRating
// appear in the *next* published snapshot's dataset; the neighborhoods
// they invalidate are refreshed by Rebuild, exactly as in the live graph.
type Snapshot struct {
	version uint64
	graph   *Graph
	data    *DatasetView
	index   *Index
	metric  string
}

// Version returns the publication sequence number: 1 for the snapshot
// published by NewMaintainer, +1 for each republication. Readers can use
// it to detect staleness cheaply.
func (s *Snapshot) Version() uint64 { return s.version }

// NumUsers returns the number of users covered by the snapshot.
func (s *Snapshot) NumUsers() int { return s.data.NumUsers() }

// K returns the neighborhood size of the snapshot graph.
func (s *Snapshot) K() int { return s.graph.K() }

// Metric returns the canonical name of the similarity metric Query
// scores with — for a published snapshot, the metric its Maintainer
// maintains the graph under.
func (s *Snapshot) Metric() string { return s.metric }

// Graph returns the immutable KNN graph of the snapshot.
func (s *Snapshot) Graph() *Graph { return s.graph }

// Dataset returns the frozen dataset view the snapshot was published
// against. Treat it as read-only: mutate only through the Maintainer.
func (s *Snapshot) Dataset() *DatasetView { return s.data }

// Profile returns user u's frozen profile (do not mutate) and whether u
// exists in the snapshot. Safe for any number of concurrent callers.
func (s *Snapshot) Profile(u uint32) (Profile, bool) {
	if int(u) >= s.data.NumUsers() {
		return Profile{}, false
	}
	return s.data.User(u), true
}

// Neighbors returns user u's neighbor list in the snapshot graph (do not
// mutate). Safe for any number of concurrent callers.
func (s *Snapshot) Neighbors(u uint32) []Neighbor { return s.graph.Neighbors(u) }

// Query returns the k users most similar to an arbitrary profile under
// the maintained metric, using KIFF's counting-phase pruning against the
// snapshot's frozen item-profile index. budget bounds similarity
// evaluations as in Index.Query (negative = exact). Safe for any number
// of concurrent callers.
func (s *Snapshot) Query(profile Profile, k, budget int) ([]Neighbor, error) {
	return s.index.Query(profile, k, budget)
}

// WriteGraphTo serializes the snapshot graph in the binary graph format
// — the handoff from a maintaining process to serving processes.
func (s *Snapshot) WriteGraphTo(w io.Writer) (int64, error) { return s.graph.WriteTo(w) }

// NewSnapshot assembles a serving Snapshot (version 1) directly from an
// already-built graph and its dataset — the read-only fast path of a
// serving process that loads a checkpoint (LoadGraphMapped +
// LoadDatasetMapped) and never mutates it, skipping the Maintainer
// entirely. The graph must cover exactly the dataset's users; the
// dataset's item-profile index is built if missing (the only O(|E|) cost
// on this path). Options supplies the query metric, as in Build.
//
// The caller must not mutate d afterwards: a static snapshot freezes a
// shallow view, and there is no writer to publish successors. For a
// mutable server, wrap the pair in NewMaintainerFromGraph instead.
func NewSnapshot(g *Graph, d *Dataset, opts Options) (*Snapshot, error) {
	if g.NumUsers() != d.NumUsers() {
		return nil, fmt.Errorf("kiff: snapshot: graph covers %d users, dataset has %d (was the graph saved from a different dataset?)",
			g.NumUsers(), d.NumUsers())
	}
	metric, err := opts.metric()
	if err != nil {
		return nil, err
	}
	return newSnapshot(1, g, d.View(), metric), nil
}

// newSnapshot assembles a Snapshot from an already-exported graph and
// dataset view. Called by the writer only. Publication is copy-on-write
// end to end: the graph is patched row by row from its predecessor
// (knngraph.PatchFrom), the view shares clean header pages with the
// previous view, and the query index is an O(1) wrapper over the view —
// so the cost is O(dirty rows · k) plus the page-table copies, not
// O(|U|·k + |I|). The first publication (no predecessor) is a full
// export.
func newSnapshot(version uint64, g *knngraph.Graph, view *dataset.View, metric similarity.Metric) *Snapshot {
	return &Snapshot{
		version: version,
		graph:   g,
		data:    view,
		index:   core.NewViewIndex(view, metric),
		metric:  metric.Name(),
	}
}
