// Package runstats instruments KNN-graph construction runs with the
// cost metrics of the paper's evaluation (§IV-C): wall time, scan rate,
// a per-activity time breakdown (preprocessing / candidate selection /
// similarity computation; Figs 1 and 5), and per-iteration convergence
// traces (Fig 8).
package runstats

import (
	"sync/atomic"
	"time"

	"kiff/internal/knngraph"
)

// Phase labels one of the three activities whose time the paper breaks
// down.
type Phase int

const (
	// PhasePreprocess covers loading-adjacent work: profile construction
	// and, for KIFF, the counting phase.
	PhasePreprocess Phase = iota
	// PhaseCandidates covers candidate selection: RCS top-pop for KIFF,
	// neighbors-of-neighbors gathering for NN-Descent and HyRec.
	PhaseCandidates
	// PhaseSimilarity covers similarity evaluations and the heap updates
	// they trigger.
	PhaseSimilarity
	numPhases
)

// String implements fmt.Stringer.
func (p Phase) String() string {
	switch p {
	case PhasePreprocess:
		return "preprocessing"
	case PhaseCandidates:
		return "candidate selection"
	case PhaseSimilarity:
		return "similarity computation"
	default:
		return "unknown"
	}
}

// PhaseTimer accumulates per-phase nanoseconds from many workers.
type PhaseTimer struct {
	nanos [numPhases]atomic.Int64
}

// Add charges d to phase p.
func (t *PhaseTimer) Add(p Phase, d time.Duration) {
	t.nanos[p].Add(int64(d))
}

// Duration returns the accumulated time of phase p.
func (t *PhaseTimer) Duration(p Phase) time.Duration {
	return time.Duration(t.nanos[p].Load())
}

// Run is the outcome record of one construction run. All fields are plain
// values; a Run is assembled once the run finishes.
type Run struct {
	// Algorithm names the producer ("kiff", "nn-descent", "hyrec",
	// "brute-force").
	Algorithm string
	// NumUsers is |U| of the input dataset.
	NumUsers int
	// K is the neighborhood size.
	K int
	// WallTime is the total construction time, including in-algorithm
	// preprocessing (the paper measures "from the JVM's entry into the
	// main method"; dataset generation/loading is timed by the harness and
	// added there).
	WallTime time.Duration
	// PhaseTimes is the per-activity breakdown. The phases do not
	// necessarily sum to WallTime (loop bookkeeping is unattributed).
	PhaseTimes [3]time.Duration
	// SimEvals is the number of similarity evaluations performed.
	SimEvals int64
	// Iterations is the number of refinement iterations executed.
	Iterations int
	// UpdatesPerIter is the number of neighborhood changes in each
	// iteration (Fig 8b).
	UpdatesPerIter []int64
	// EvalsAtIter is the cumulative SimEvals after each iteration
	// (the x axis of Fig 8).
	EvalsAtIter []int64
	// RecallAtIter is the recall after each iteration, filled only when
	// the run was given an IterHook that computes it (Fig 8a).
	RecallAtIter []float64
}

// Counters are the cumulative maintenance counters of a maintained
// graph — the serving-time cost observables: how many users were spliced
// in, how many rebuild passes ran (and over how many users), and the
// similarity evaluations all of it spent. They are defined here (rather
// than next to the maintainer) so that aggregation layers — the shard
// pool, the HTTP server's /stats — can consume them without importing
// the facade.
type Counters struct {
	// SimEvals counts every similarity evaluation performed by
	// maintenance operations (the §IV-C cost metric, served cumulatively):
	// the candidates the maintenance walks scored.
	SimEvals int64
	// Inserts counts users added via Insert/InsertBatch.
	Inserts int64
	// Rebuilds counts Rebuild passes that refreshed at least one user.
	Rebuilds int64
	// RebuiltUsers counts users refreshed across all Rebuild passes.
	RebuiltUsers int64
	// WallNs is the cumulative wall time of Insert, InsertBatch and
	// Rebuild calls, in nanoseconds (summed over shards in aggregates).
	WallNs int64

	// Publishes counts snapshot publications (the copy-on-write exports
	// that make mutations visible to readers).
	Publishes int64
	// PagesCopied and PagesShared count, across all publications, the
	// graph and dataset-header pages that were replaced because they
	// held dirty rows versus shared intact with the previous snapshot.
	// Their ratio is the direct observable of copy-on-write publication:
	// steady-state incremental publishes should be almost all shared.
	PagesCopied int64
	PagesShared int64
	// EntriesCopied counts the graph edge records exported into dirty
	// rows across all publications (the first, full export included):
	// the edge data publication writes, where a replaced page itself
	// costs only its row headers.
	EntriesCopied int64
	// PublishNs is the cumulative wall time spent publishing, in
	// nanoseconds; PublishNs/Publishes is the mean publication cost.
	PublishNs int64
	// LastPublishNs is the duration of the most recent publication (the
	// worst shard's, after aggregation).
	LastPublishNs int64
}

// Add accumulates another counter record — the shard pool's aggregate
// view sums its per-shard counters with it. LastPublishNs takes the max
// rather than the sum: the aggregate's "last publish" is the slowest
// member, not a fictitious total.
func (c *Counters) Add(o Counters) {
	c.SimEvals += o.SimEvals
	c.Inserts += o.Inserts
	c.Rebuilds += o.Rebuilds
	c.RebuiltUsers += o.RebuiltUsers
	c.WallNs += o.WallNs
	c.Publishes += o.Publishes
	c.PagesCopied += o.PagesCopied
	c.PagesShared += o.PagesShared
	c.EntriesCopied += o.EntriesCopied
	c.PublishNs += o.PublishNs
	c.LastPublishNs = max(c.LastPublishNs, o.LastPublishNs)
}

// ScanRate is the paper's normalized similarity-evaluation count:
// #evals / (|U|·(|U|−1)/2).
func (r *Run) ScanRate() float64 {
	return ScanRate(r.SimEvals, r.NumUsers)
}

// ScanRateAt returns the cumulative scan rate after iteration i.
func (r *Run) ScanRateAt(i int) float64 {
	if i < 0 || i >= len(r.EvalsAtIter) {
		return 0
	}
	return ScanRate(r.EvalsAtIter[i], r.NumUsers)
}

// ScanRate normalizes an evaluation count by the number of user pairs.
func ScanRate(evals int64, numUsers int) float64 {
	if numUsers < 2 {
		return 0
	}
	pairs := float64(numUsers) * float64(numUsers-1) / 2
	return float64(evals) / pairs
}

// IterHook observes the state after each refinement iteration: the
// snapshot graph, and the cumulative number of similarity evaluations.
// The returned value is recorded into Run.RecallAtIter (use NaN-free 0 if
// not computing recall). Hooks run on the coordinating goroutine, between
// iterations, so they may read anything without synchronization concerns
// beyond the heap locks FromSet already takes.
type IterHook func(iter int, g *knngraph.Graph, simEvals int64) float64
