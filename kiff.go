// Package kiff is a Go implementation of KIFF (K-nearest-neighbor
// Impressively Fast and eFficient), the KNN-graph construction algorithm
// of Boutet, Kermarrec, Mittal & Taïani, "Being prepared in a sparse
// world: the case of KNN graph construction", ICDE 2016 — together with
// the baselines the paper evaluates against (NN-Descent, HyRec, brute
// force) and the full experimental harness that regenerates the paper's
// tables and figures.
//
// # Quick start
//
//	ds, err := kiff.LoadFile("ratings.tsv", kiff.LoadOptions{Name: "ratings"})
//	if err != nil { ... }
//	res, err := kiff.Build(ds, kiff.Options{K: 20})
//	if err != nil { ... }
//	for _, nb := range res.Graph.Neighbors(0) {
//		fmt.Println(nb.ID, nb.Sim)
//	}
//
// KIFF targets sparse user–item datasets: each user is associated with a
// set of items (optionally rated), and two users' similarity is computed
// from their item profiles. On such datasets KIFF prunes the candidate
// space to the users sharing at least one item — without losing any
// candidate that any overlap-based metric could score above zero — and
// examines candidates in decreasing shared-item order, which is why it
// converges an order of magnitude faster than random-start greedy
// approaches while delivering a better approximation.
//
// # The builder engine
//
// Every construction algorithm is a builder registered with the engine in
// kiff/internal/engine, which owns the shared pipeline (option
// normalization → metric preparation → refinement → finalization) and the
// cost instrumentation. Build dispatches Options.Algorithm through that
// registry; Algorithms lists what is registered. New algorithms plug in
// by implementing engine.Builder — no dispatch site needs to change.
//
// # Incremental maintenance
//
// Batch construction is not the only mode: a Maintainer builds the exact
// graph with one counting walk per user (KIFF's counting phase at γ = ∞,
// with scoring moved into the count) and keeps it fresh while profiles
// stream in, without full reconstruction. Insert walks the new user once
// and offers it to every candidate; AddRating plus Rebuild re-walk the
// users whose profiles changed. See Maintainer.
//
// # Sharding
//
// When one writer is not enough, NewShardedMaintainer hash-partitions
// the population across N independent Maintainers: writes route by
// owner and run in parallel per shard, exact profile queries scatter to
// every shard and gather into the same top-k a single Maintainer would
// return, and the whole pool persists as per-shard checkpoints plus a
// manifest, with one write-ahead log per shard. A one-shard pool
// (OneShardPool) is how a single Maintainer is served. See
// ShardedMaintainer.
package kiff

import (
	"fmt"
	"io"
	"os"

	"kiff/internal/bruteforce"
	"kiff/internal/core"
	"kiff/internal/dataset"
	"kiff/internal/engine"
	"kiff/internal/knngraph"
	"kiff/internal/runstats"
	"kiff/internal/similarity"
	"kiff/internal/sparse"

	// Registered engine builders that the facade does not otherwise use.
	_ "kiff/internal/bucket"
	_ "kiff/internal/hyrec"
	_ "kiff/internal/nndescent"
)

// Dataset is a user–item bipartite dataset; see LoadFile, Load and the
// Generate* helpers for the supported sources. Datasets support
// append-only mutation (AddUser, AddRating) for online workloads; pair
// them with a Maintainer to keep a constructed graph fresh.
type Dataset = dataset.Dataset

// DatasetView is a frozen, page-shared snapshot of a Dataset — what
// Snapshot.Dataset returns. Views share unchanged header pages with the
// previous publication (copy-on-write), so publishing one after a small
// mutation batch costs the dirty pages plus a page-table copy; treat
// them as strictly read-only.
type DatasetView = dataset.View

// LoadOptions controls edge-list parsing.
type LoadOptions = dataset.LoadOptions

// Graph is a directed k-NN graph.
type Graph = knngraph.Graph

// Neighbor is one edge of a Graph.
type Neighbor = knngraph.Neighbor

// Run carries the cost metrics of a construction run (wall time, scan
// rate, phase breakdown, per-iteration traces).
type Run = runstats.Run

// Algorithm selects the construction algorithm.
type Algorithm string

// Available algorithms. Algorithms returns the full registry, including
// builders registered by other packages.
const (
	// KIFF is the paper's contribution and the default.
	KIFF Algorithm = "kiff"
	// NNDescent is the Dong et al. baseline.
	NNDescent Algorithm = "nn-descent"
	// HyRec is the browser-oriented greedy baseline.
	HyRec Algorithm = "hyrec"
	// BruteForce computes the exact graph in O(|U|²) similarity calls.
	BruteForce Algorithm = "brute-force"
	// Bucketed is the sub-quadratic divide-and-conquer builder: minhash
	// bucketing, per-bucket KIFF, cross-bucket refinement sweeps. See
	// Bands, BucketSize and Sweeps for its recall-vs-cost knobs.
	Bucketed Algorithm = "bucketed"
)

// Algorithms lists the names of every registered construction algorithm,
// sorted. Any of them is a valid Options.Algorithm.
func Algorithms() []string { return engine.Names() }

// Options configures Build. Only K is mandatory.
type Options struct {
	// K is the neighborhood size.
	K int
	// Algorithm defaults to KIFF; see Algorithms for the registry.
	Algorithm Algorithm
	// Metric names the similarity measure: "cosine" (default), "jaccard",
	// "adamic-adar", "overlap" or "dice".
	Metric string
	// Gamma is KIFF's per-iteration candidate budget (0 = the paper's 2k;
	// negative = exhaust the candidate sets, which yields the exact graph).
	// A Maintainer ignores it: its walks always score every candidate.
	Gamma int
	// Beta is KIFF's / HyRec's termination threshold. 0 selects the paper
	// default 0.001. A negative Beta disables the threshold: KIFF then
	// iterates until its candidate sets are exhausted, which yields the
	// exact graph (§III-D) — the same result as a negative Gamma, spread
	// over γ-sized iterations. HyRec has no exhaustion point and rejects
	// a negative Beta unless MaxIterations (not exposed here) bounds it.
	// A Maintainer ignores it, as it does Gamma.
	Beta float64
	// Workers bounds parallelism (0 = all CPUs).
	Workers int
	// Seed drives the randomized baselines (KIFF is deterministic).
	Seed int64
	// MinRating enables KIFF's positive-rating candidate filter (§VII).
	MinRating float64
	// Bands is the bucketed builder's number of independent minhash
	// bucketings (0 = 4). More bands recover more true neighbors at
	// proportionally more similarity evaluations.
	Bands int
	// BucketSize bounds the bucketed builder's per-bucket population
	// (0 = 192).
	BucketSize int
	// Sweeps is the bucketed builder's number of cross-bucket refinement
	// passes (0 = 2, negative disables them).
	Sweeps int
}

// metric resolves Options.Metric: "" selects cosine, the paper's
// default, and aliases resolve to their canonical metric. Unknown names
// fail here, before any work starts.
func (o Options) metric() (similarity.Metric, error) {
	if o.Metric == "" {
		return similarity.Cosine{}, nil
	}
	return similarity.ByName(o.Metric)
}

// engineOptions maps the facade options onto the engine's shared set.
func (o Options) engineOptions() (engine.Options, error) {
	metric, err := o.metric()
	if err != nil {
		return engine.Options{}, err
	}
	return engine.Options{
		K:          o.K,
		Metric:     metric,
		Gamma:      o.Gamma,
		Beta:       o.Beta,
		Workers:    o.Workers,
		Seed:       o.Seed,
		MinRating:  o.MinRating,
		Bands:      o.Bands,
		BucketSize: o.BucketSize,
		Sweeps:     o.Sweeps,
	}, nil
}

// Result is the outcome of Build.
type Result struct {
	Graph *Graph
	Run   Run
}

// Build constructs a KNN graph over the dataset's users, dispatching
// Options.Algorithm through the engine registry.
func Build(d *Dataset, opts Options) (*Result, error) {
	res, err := buildEngine(d, opts)
	if err != nil {
		return nil, err
	}
	return &Result{Graph: res.Graph, Run: res.Run}, nil
}

func buildEngine(d *Dataset, opts Options) (*engine.Result, error) {
	algo := string(opts.Algorithm)
	if algo == "" {
		algo = string(KIFF)
	}
	eo, err := opts.engineOptions()
	if err != nil {
		return nil, err
	}
	return engine.Build(algo, d, eo)
}

// Recall scores an approximate graph against exact ground truth computed
// by brute force over sampleSize users (0 = every user), using the same
// metric. It implements Eq. (3)/(4) of the paper, tie-aware. The graph
// must cover exactly the dataset's users — loading a saved graph against
// a different edge list is rejected rather than mis-scored.
func Recall(d *Dataset, g *Graph, opts Options, sampleSize int) (float64, error) {
	if g.NumUsers() != d.NumUsers() {
		return 0, fmt.Errorf("kiff: recall: graph covers %d users, dataset has %d (was the graph built/saved from a different dataset?)",
			g.NumUsers(), d.NumUsers())
	}
	metric, err := opts.metric()
	if err != nil {
		return 0, err
	}
	var exact *knngraph.Exact
	if sampleSize > 0 && sampleSize < d.NumUsers() {
		exact = bruteforce.Sampled(d, metric, g.K(), sampleSize, opts.Seed, opts.Workers)
	} else {
		exact = bruteforce.Exact(d, metric, g.K(), opts.Workers)
	}
	return exact.Recall(g), nil
}

// NewDataset builds a dataset directly from per-user profiles, for
// programs that assemble data in memory rather than loading edge lists.
// numItems must exceed every item ID referenced; profiles must be sorted
// by ascending ID (use kiff.ProfileFromMap when assembling from maps).
func NewDataset(name string, profiles []Profile, numItems int) (*Dataset, error) {
	d, err := dataset.New(name, profiles, numItems)
	if err != nil {
		return nil, err
	}
	d.EnsureItemProfiles()
	return d, nil
}

// ProfileFromMap builds a well-formed profile from an item→rating map.
// binary discards the ratings.
func ProfileFromMap(m map[uint32]float64, binary bool) Profile {
	return sparse.FromMap(m, binary)
}

// Load parses a whitespace-separated "user item [rating]" edge list.
func Load(r io.Reader, opts LoadOptions) (*Dataset, error) {
	opts.BuildItemProfiles = true
	return dataset.Load(r, opts)
}

// LoadFile is Load over a file path.
func LoadFile(path string, opts LoadOptions) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	if opts.Name == "" {
		opts.Name = path
	}
	return Load(f, opts)
}

// WriteDataset serializes a dataset as an edge list that Load round-trips.
func WriteDataset(w io.Writer, d *Dataset) error { return dataset.Write(w, d) }

// WriteGraphBinary serializes a graph in the versioned, checksummed
// binary format (magic KFG1): build once, then serve the saved graph
// from any number of processes via ReadGraphBinary. Similarities are
// stored bit-exactly, so the loaded graph scores identically to the
// in-memory one.
func WriteGraphBinary(w io.Writer, g *Graph) error {
	_, err := g.WriteTo(w)
	return err
}

// ReadGraphBinary decodes a graph written by WriteGraphBinary, verifying
// the checksum and graph invariants. Corrupt input returns an error,
// never panics.
func ReadGraphBinary(r io.Reader) (*Graph, error) { return knngraph.ReadBinary(r) }

// SaveGraph writes the binary graph format to a file.
func SaveGraph(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteGraphBinary(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadGraph reads a file written by SaveGraph.
func LoadGraph(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadGraphBinary(f)
}

// WriteDatasetBinary serializes a dataset in the versioned, checksummed
// binary format (magic KFD1). Unlike the text edge list, ratings are
// stored bit-exactly. The item-profile index is not serialized; it is
// rebuilt lazily on first use after a load (NewIndex, Build and
// NewMaintainer all trigger it).
func WriteDatasetBinary(w io.Writer, d *Dataset) error { return dataset.WriteBinary(w, d) }

// ReadDatasetBinary decodes a dataset written by WriteDatasetBinary,
// verifying the checksum and dataset invariants.
func ReadDatasetBinary(r io.Reader) (*Dataset, error) { return dataset.ReadBinary(r) }

// SaveDataset writes the binary dataset format to a file.
func SaveDataset(path string, d *Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := WriteDatasetBinary(f, d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// LoadDataset reads a file written by SaveDataset.
func LoadDataset(path string) (*Dataset, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return ReadDatasetBinary(f)
}

// GeneratePreset materializes one of the paper's synthetic dataset
// replicas ("arxiv", "wikipedia", "gowalla", "dblp") at the given scale
// (1 = published size).
func GeneratePreset(name string, scale float64, seed int64) (*Dataset, error) {
	return dataset.Preset(name).Generate(scale, seed)
}

// GenerateMovieLens materializes the ML-1-style dense rating dataset of
// Table IX at the given scale.
func GenerateMovieLens(scale float64, seed int64) (*Dataset, error) {
	return dataset.SynthesizeMovieLens(dataset.DefaultMovieLens(scale, seed))
}

// Toy returns the paper's Figure 2 running example (Alice, Bob, Carl,
// Dave) with the user and item names.
func Toy() (d *Dataset, userNames, itemNames []string) { return dataset.Toy() }

// Profile is a sparse item profile, used for ad-hoc KNN queries.
type Profile = sparse.Vector

// Index answers single-profile KNN queries against a dataset using
// KIFF's counting-phase pruning; see NewIndex.
type Index = core.Index

// NewIndex builds a query index over the dataset. Queries against it
// find the k most similar users to an arbitrary item profile — the
// search and classification workloads of the paper's introduction —
// touching only users that share at least one item with the query.
func NewIndex(d *Dataset, opts Options) (*Index, error) {
	metric, err := opts.metric()
	if err != nil {
		return nil, err
	}
	return core.NewIndex(d, metric), nil
}

// NewViewIndex builds a query index over a frozen dataset view (see
// Snapshot.Dataset). Views always carry item profiles, so construction
// is O(1); the index answers exactly like NewIndex over the dataset the
// view was published from.
func NewViewIndex(v *DatasetView, opts Options) (*Index, error) {
	metric, err := opts.metric()
	if err != nil {
		return nil, err
	}
	return core.NewViewIndex(v, metric), nil
}

// Metrics lists the supported similarity metric names.
func Metrics() []string { return similarity.Names() }
