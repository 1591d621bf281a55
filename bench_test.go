// Benchmarks that regenerate every table and figure of the paper at a
// reduced, benchmark-friendly scale, plus ablation benches for the design
// choices DESIGN.md calls out. Run with:
//
//	go test -bench=. -benchmem
//
// Paper-sized numbers come from `kiffbench -scale 1` instead; these
// benches exist so the whole evaluation pipeline is exercised (and its
// allocations tracked) on every benchmark run.
package kiff

import (
	"bytes"
	"fmt"
	"io"
	"math/rand"
	"path/filepath"
	"sync"
	"testing"

	"kiff/internal/core"
	"kiff/internal/dataset"
	"kiff/internal/experiments"
	"kiff/internal/knngraph"
	"kiff/internal/rcs"
	"kiff/internal/similarity"
	"kiff/internal/sparse"
)

// benchHarness is shared across benchmarks so dataset generation and
// ground truth are paid once, not once per bench.
var (
	benchOnce sync.Once
	benchH    *experiments.Harness
)

func harness() *experiments.Harness {
	benchOnce.Do(func() {
		benchH = experiments.New(experiments.Options{
			Scale:        0.02,
			Seed:         42,
			RecallSample: 200,
			KCap:         8,
		})
	})
	return benchH
}

func benchErr(b *testing.B, err error) {
	b.Helper()
	if err != nil {
		b.Fatal(err)
	}
}

// --- One benchmark per paper table/figure ------------------------------

func BenchmarkTable1DatasetStats(b *testing.B) {
	b.ReportAllocs()
	h := harness()
	for i := 0; i < b.N; i++ {
		_, err := h.Table1()
		benchErr(b, err)
	}
}

func BenchmarkFig1Breakdown(b *testing.B) {
	b.ReportAllocs()
	h := harness()
	for i := 0; i < b.N; i++ {
		res, err := h.Fig1()
		benchErr(b, err)
		if i == 0 {
			b.ReportMetric(res.Breakdowns[0].SimilarityFrac, "simfrac")
		}
	}
}

func BenchmarkFig4ProfileCCDF(b *testing.B) {
	b.ReportAllocs()
	h := harness()
	for i := 0; i < b.N; i++ {
		_, err := h.Fig4()
		benchErr(b, err)
	}
}

func BenchmarkTable2Overall(b *testing.B) {
	b.ReportAllocs()
	h := harness()
	for i := 0; i < b.N; i++ {
		res, err := h.Table2()
		benchErr(b, err)
		if i == 0 {
			b.ReportMetric(res.Datasets[0].KIFF.Recall, "kiff-recall")
			b.ReportMetric(res.Datasets[0].SpeedUp, "speedup")
		}
	}
}

func BenchmarkTable3Gains(b *testing.B) {
	b.ReportAllocs()
	h := harness()
	t2, err := h.Table2()
	benchErr(b, err)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res := h.Table3(t2)
		if i == 0 {
			b.ReportMetric(res.SpeedUpAvg, "speedup")
		}
	}
}

func BenchmarkTable4ItemProfileOverhead(b *testing.B) {
	b.ReportAllocs()
	h := harness()
	for i := 0; i < b.N; i++ {
		_, err := h.Table4()
		benchErr(b, err)
	}
}

func BenchmarkTable5RCSConstruction(b *testing.B) {
	b.ReportAllocs()
	h := harness()
	for i := 0; i < b.N; i++ {
		res, err := h.Table5()
		benchErr(b, err)
		if i == 0 {
			b.ReportMetric(res.Rows[0].AvgLen, "avg-rcs")
		}
	}
}

func BenchmarkFig5PhaseBreakdown(b *testing.B) {
	b.ReportAllocs()
	h := harness()
	for i := 0; i < b.N; i++ {
		_, err := h.Fig5()
		benchErr(b, err)
	}
}

func BenchmarkFig6Table6Truncation(b *testing.B) {
	b.ReportAllocs()
	h := harness()
	for i := 0; i < b.N; i++ {
		_, _, err := h.Fig6Table6()
		benchErr(b, err)
	}
}

func BenchmarkFig7Spearman(b *testing.B) {
	b.ReportAllocs()
	h := harness()
	for i := 0; i < b.N; i++ {
		res, err := h.Fig7()
		benchErr(b, err)
		if i == 0 && len(res.Points) > 0 {
			b.ReportMetric(res.MeanCosine, "spearman-cos")
		}
	}
}

func BenchmarkTable7Initialization(b *testing.B) {
	b.ReportAllocs()
	h := harness()
	for i := 0; i < b.N; i++ {
		res, err := h.Table7()
		benchErr(b, err)
		if i == 0 {
			b.ReportMetric(res.Rows[0].TopKRecall, "rcs-init-recall")
		}
	}
}

func BenchmarkFig8Convergence(b *testing.B) {
	b.ReportAllocs()
	h := harness()
	for i := 0; i < b.N; i++ {
		_, err := h.Fig8()
		benchErr(b, err)
	}
}

func BenchmarkTable8KSensitivity(b *testing.B) {
	b.ReportAllocs()
	h := harness()
	t2, err := h.Table2()
	benchErr(b, err)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, err := h.Table8(t2)
		benchErr(b, err)
	}
}

func BenchmarkFig9GammaSweep(b *testing.B) {
	b.ReportAllocs()
	h := harness()
	for i := 0; i < b.N; i++ {
		_, err := h.Fig9()
		benchErr(b, err)
	}
}

func BenchmarkTable9MovieLensLadder(b *testing.B) {
	b.ReportAllocs()
	h := harness()
	for i := 0; i < b.N; i++ {
		res, err := h.Table9()
		benchErr(b, err)
		if i == 0 {
			b.ReportMetric(res.Rows[0].AvgRCS, "ml1-avg-rcs")
		}
	}
}

func BenchmarkFig10Density(b *testing.B) {
	b.ReportAllocs()
	h := harness()
	for i := 0; i < b.N; i++ {
		_, err := h.Fig10()
		benchErr(b, err)
	}
}

// --- Ablation benches (DESIGN.md §4) ------------------------------------

func ablationDataset(b *testing.B) *dataset.Dataset {
	b.Helper()
	d, err := dataset.Wikipedia.Generate(0.05, 3)
	if err != nil {
		b.Fatal(err)
	}
	return d
}

// BenchmarkAblationRCSOrder isolates the value of ranking candidates by
// shared-item count: same pruning, same budget, shuffled order.
func BenchmarkAblationRCSOrder(b *testing.B) {
	d := ablationDataset(b)
	for _, mode := range []struct {
		name    string
		shuffle bool
	}{{"ranked", false}, {"random-order", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var evals int64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(10)
				cfg.RandomOrderRCS = mode.shuffle
				cfg.Seed = int64(i)
				res, err := core.Build(d, cfg)
				benchErr(b, err)
				evals = res.Run.SimEvals
			}
			b.ReportMetric(float64(evals), "sim-evals")
		})
	}
}

// BenchmarkAblationPivot contrasts the §II-D pivot rule against complete
// (symmetric) candidate sets: same information, twice the memory.
func BenchmarkAblationPivot(b *testing.B) {
	d := ablationDataset(b)
	for _, mode := range []struct {
		name    string
		noPivot bool
	}{{"pivot", false}, {"no-pivot", true}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var total int
			for i := 0; i < b.N; i++ {
				sets := rcs.Build(d, rcs.BuildOptions{NoPivot: mode.noPivot})
				total = sets.BuildStats.TotalCandidates
			}
			b.ReportMetric(float64(total), "candidates")
		})
	}
}

// BenchmarkAblationGammaInf contrasts one-shot RCS exhaustion (the exact
// mode of §III-D) against the default iterative refinement.
func BenchmarkAblationGammaInf(b *testing.B) {
	d := ablationDataset(b)
	for _, mode := range []struct {
		name  string
		gamma int
		beta  float64
	}{{"gamma-2k", 0, 0.001}, {"gamma-inf", -1, -1}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(10)
				cfg.Gamma = mode.gamma
				cfg.Beta = mode.beta
				_, err := core.Build(d, cfg)
				benchErr(b, err)
			}
		})
	}
}

// BenchmarkAblationRatingThreshold measures the §VII future-work
// heuristic on a weighted dataset: inserting only positively-rated items
// into the RCSs shrinks them and speeds up the run.
func BenchmarkAblationRatingThreshold(b *testing.B) {
	d, err := dataset.Gowalla.Generate(0.005, 3)
	benchErr(b, err)
	for _, mode := range []struct {
		name      string
		minRating float64
	}{{"all-ratings", 0}, {"rating-ge-3", 3}} {
		b.Run(mode.name, func(b *testing.B) {
			b.ReportAllocs()
			var evals int64
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig(10)
				cfg.MinRating = mode.minRating
				res, err := core.Build(d, cfg)
				benchErr(b, err)
				evals = res.Run.SimEvals
			}
			b.ReportMetric(float64(evals), "sim-evals")
		})
	}
}

// --- Micro-benchmarks of the hot paths ----------------------------------

func BenchmarkSparseCommonCount(b *testing.B) {
	a := sparse.Vector{IDs: seqIDs(0, 40, 2)}
	c := sparse.Vector{IDs: seqIDs(1, 40, 3)}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sparse.CommonCount(a, c)
	}
}

func BenchmarkSimilarityCosineWeighted(b *testing.B) {
	d, err := dataset.Gowalla.Generate(0.002, 5)
	benchErr(b, err)
	sim := similarity.Cosine{}.Prepare(d).Pair
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sim(uint32(i%d.NumUsers()), uint32((i*7+1)%d.NumUsers()))
	}
}

// BenchmarkSimilarityKernels contrasts the batched one-vs-many kernels
// against the pairwise reference on the wikipedia fixture: one pivot
// scored against a γ=2k-sized candidate chunk, the refine loop's unit of
// work. The batch path scatters the pivot once per chunk; the pairwise
// path re-merges it per candidate.
func BenchmarkSimilarityKernels(b *testing.B) {
	d := ablationDataset(b)
	const gamma = 20 // 2k for the k=10 ablation fixture
	pivot := uint32(0)
	cands := make([]uint32, gamma)
	for i := range cands {
		cands[i] = uint32(i + 1)
	}
	scores := make([]float64, gamma)
	for _, name := range []string{"cosine", "jaccard", "adamic-adar"} {
		m, err := similarity.ByName(name)
		benchErr(b, err)
		bound := m.Prepare(d)
		kernel, pair := bound.Batch(), bound.Pair
		b.Run(name+"/batch", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				kernel.ScoreInto(scores, pivot, cands)
			}
		})
		b.Run(name+"/pairwise", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				for j, v := range cands {
					scores[j] = pair(pivot, v)
				}
			}
		})
	}
}

func BenchmarkRCSBuildWikipedia(b *testing.B) {
	d := ablationDataset(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rcs.Build(d, rcs.BuildOptions{})
	}
}

func BenchmarkKIFFEndToEnd(b *testing.B) {
	d := ablationDataset(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, err := core.Build(d, core.DefaultConfig(10))
		benchErr(b, err)
	}
}

// BenchmarkAblationBucketed sweeps the bucketed engine's recall-vs-cost
// knob against standard KIFF on the same fixture: more hash bands and
// refinement sweeps buy recall with extra similarity evaluations. The
// sim-evals and recall metrics are deterministic per config; ns/op is
// what varies run to run.
func BenchmarkAblationBucketed(b *testing.B) {
	d := ablationDataset(b)
	exact, err := Build(d, Options{K: 10, Seed: 3, Algorithm: BruteForce})
	benchErr(b, err)
	configs := []struct {
		name string
		opts Options
	}{
		{"kiff-standard", Options{K: 10, Seed: 3}},
		{"bucketed-lean/b5-s96-w1", Options{K: 10, Seed: 3, Algorithm: Bucketed, Bands: 5, BucketSize: 96, Sweeps: 1}},
		{"bucketed-default/b4-s192-w2", Options{K: 10, Seed: 3, Algorithm: Bucketed}},
	}
	for _, cfg := range configs {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			var res *Result
			for i := 0; i < b.N; i++ {
				res, err = Build(d, cfg.opts)
				benchErr(b, err)
			}
			b.ReportMetric(float64(res.Run.SimEvals), "sim-evals")
			b.ReportMetric(graphRecall(exact.Graph, res.Graph), "recall")
		})
	}
}

// graphRecall is the fraction of exact k-NN edges present in got.
func graphRecall(exact, got *Graph) float64 {
	var hit, total int
	for u := 0; u < exact.NumUsers(); u++ {
		in := make(map[uint32]bool)
		for _, e := range got.Neighbors(uint32(u)) {
			in[e.ID] = true
		}
		for _, e := range exact.Neighbors(uint32(u)) {
			total++
			if in[e.ID] {
				hit++
			}
		}
	}
	if total == 0 {
		return 1
	}
	return float64(hit) / float64(total)
}

func BenchmarkGraphBinaryEncode(b *testing.B) {
	d := ablationDataset(b)
	res, err := core.Build(d, core.DefaultConfig(10))
	benchErr(b, err)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := res.Graph.WriteTo(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkGraphBinaryDecode(b *testing.B) {
	d := ablationDataset(b)
	res, err := core.Build(d, core.DefaultConfig(10))
	benchErr(b, err)
	var buf bytes.Buffer
	if _, err := res.Graph.WriteTo(&buf); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := knngraph.ReadBinary(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
	}
}

// benchCheckpoint builds the ablation fixture once and saves the graph
// and dataset checkpoints for the load-path benchmarks.
func benchCheckpoint(b *testing.B) (gpath, dpath string) {
	b.Helper()
	d := ablationDataset(b)
	res, err := core.Build(d, core.DefaultConfig(10))
	benchErr(b, err)
	dir := b.TempDir()
	gpath = filepath.Join(dir, "graph.kfg")
	dpath = filepath.Join(dir, "data.kfd")
	benchErr(b, SaveGraph(gpath, res.Graph))
	benchErr(b, SaveDataset(dpath, d))
	return gpath, dpath
}

// BenchmarkGraphLoadHeap vs BenchmarkGraphLoadMapped pin the mmap-path
// property: the heap load allocates O(edges), the mapped load only the
// O(|U|) row headers while the edge payload stays mapped — compare
// allocs/op and bytes/op between the two.
func BenchmarkGraphLoadHeap(b *testing.B) {
	gpath, _ := benchCheckpoint(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := LoadGraph(gpath)
		benchErr(b, err)
		_ = g
	}
}

func BenchmarkGraphLoadMapped(b *testing.B) {
	gpath, _ := benchCheckpoint(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mg, err := LoadGraphMapped(gpath)
		benchErr(b, err)
		benchErr(b, mg.Close())
	}
}

// Dataset loads: the mapped path still allocates the O(|U|) profile
// headers, but the ID/rating payload arenas stay in the mapping.
func BenchmarkDatasetLoadHeap(b *testing.B) {
	_, dpath := benchCheckpoint(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := LoadDataset(dpath)
		benchErr(b, err)
		_ = d
	}
}

func BenchmarkDatasetLoadMapped(b *testing.B) {
	_, dpath := benchCheckpoint(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		md, err := LoadDatasetMapped(dpath)
		benchErr(b, err)
		benchErr(b, md.Close())
	}
}

// BenchmarkSnapshotPublish measures the writer-side cost of one mutation
// batch over a *fixed-size* population: a rating update, the single-user
// Rebuild it dirties, and the snapshot publication (graph export + frozen
// dataset view). Inserts would grow the population with b.N and skew the
// per-op numbers.
func BenchmarkSnapshotPublish(b *testing.B) {
	d := ablationDataset(b)
	m, err := NewMaintainer(d, Options{K: 10})
	benchErr(b, err)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.AddRating(uint32(i%m.Dataset().NumUsers()), uint32(i%40), float64(1+i%5)); err != nil {
			b.Fatal(err)
		}
		if err := m.Rebuild(nil); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMaintainerRating measures one write on the fixtures the
// kiffload benchmark serves (wikipedia at scale 1, gowalla at scale 0.1,
// k = 20). The rating sub-benchmarks add an item the user has not rated,
// to a user holding at most 64 items as kiffload draws them, then run
// the single-user Rebuild(nil) and its publication. The insert-*
// sub-benchmarks Insert a new user's profile drawn the way kiffload's
// insert stream draws it; the population therefore grows with b.N.
// Besides ns/op, each reports the publication's share from the
// maintainer's counters: publish-µs/op and pages-copied/op (graph and
// dataset-header pages replaced per write). BenchmarkSnapshotPublish
// runs on a fixture too small for a cost that grows with |U| to show.
func BenchmarkMaintainerRating(b *testing.B) {
	for _, fx := range []struct {
		preset string
		scale  float64
	}{{"wikipedia", 1}, {"gowalla", 0.1}} {
		var (
			m      *Maintainer
			n0     int // the fixture's own users, the pool insert profiles come from
			binary bool
		)
		rng := rand.New(rand.NewSource(1))
		setup := func(b *testing.B) {
			if m == nil {
				d, err := GeneratePreset(fx.preset, fx.scale, 42)
				benchErr(b, err)
				m, err = NewMaintainer(d, Options{K: 20})
				benchErr(b, err)
				n0, binary = d.NumUsers(), d.Binary()
			}
			b.ReportAllocs()
			b.ResetTimer()
		}
		rating := func() float64 {
			if binary {
				return 1
			}
			return float64(1 + rng.Intn(8))
		}
		name := fmt.Sprintf("%s-%g", fx.preset, fx.scale)
		b.Run(name, func(b *testing.B) {
			setup(b)
			d := m.Dataset()
			before := m.Counters()
			for i := 0; i < b.N; i++ {
				u := uint32(rng.Intn(d.NumUsers()))
				for d.User(u).Len() > 64 {
					u = uint32(rng.Intn(d.NumUsers()))
				}
				item := uint32(rng.Intn(d.NumItems()))
				for d.User(u).Contains(item) {
					item = uint32(rng.Intn(d.NumItems()))
				}
				if err := m.AddRating(u, item, rating()); err != nil {
					b.Fatal(err)
				}
				if err := m.Rebuild(nil); err != nil {
					b.Fatal(err)
				}
			}
			reportPublish(b, before, m.Counters())
		})
		b.Run("insert-"+name, func(b *testing.B) {
			setup(b)
			d := m.Dataset()
			before := m.Counters()
			for i := 0; i < b.N; i++ {
				// A fixture user's profile with a fifth of its items
				// dropped (keeping at least one), at most 64 of the rest
				// kept, and two items it lacks added.
				p := d.User(uint32(rng.Intn(n0)))
				var keep []int
				for j := range p.IDs {
					if rng.Float64() >= 0.2 {
						keep = append(keep, j)
					}
				}
				if len(keep) == 0 && p.Len() > 0 {
					keep = append(keep, rng.Intn(p.Len()))
				}
				rng.Shuffle(len(keep), func(a, c int) { keep[a], keep[c] = keep[c], keep[a] })
				ratings := make(map[uint32]float64, 66)
				for _, j := range keep[:min(len(keep), 64)] {
					ratings[p.IDs[j]] = p.Weight(j)
				}
				for added := 0; added < 2; {
					it := uint32(rng.Intn(d.NumItems()))
					if _, ok := ratings[it]; !ok {
						ratings[it] = rating()
						added++
					}
				}
				if _, err := m.Insert(ProfileFromMap(ratings, binary)); err != nil {
					b.Fatal(err)
				}
			}
			reportPublish(b, before, m.Counters())
		})
	}
}

// reportPublish reports the publication cost per benchmark op from two
// maintainer counter readings taken around the b.N loop.
func reportPublish(b *testing.B, before, after Counters) {
	b.ReportMetric(float64(after.PublishNs-before.PublishNs)/1e3/float64(b.N), "publish-µs/op")
	b.ReportMetric(float64(after.PagesCopied-before.PagesCopied)/float64(b.N), "pages-copied/op")
}

// BenchmarkSnapshotQuery measures the reader-side serving path: a
// budgeted profile query against a published snapshot.
func BenchmarkSnapshotQuery(b *testing.B) {
	d := ablationDataset(b)
	m, err := NewMaintainer(d, Options{K: 10})
	benchErr(b, err)
	s := m.Snapshot()
	profile := m.Dataset().Users[1]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Query(profile, 10, 20); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSnapshotQueryExact measures an exact (budget < 0) query — the
// mode kiffserve runs by default — on the full-scale wikipedia fixture,
// where dense item profiles give every query hundreds of candidates.
// The pool-1 case runs the same query the way an unsharded server does:
// through a one-shard pool's View, pinned per query.
func BenchmarkSnapshotQueryExact(b *testing.B) {
	d, err := dataset.Wikipedia.Generate(1, 3)
	benchErr(b, err)
	m, err := NewMaintainer(d, Options{K: 10})
	benchErr(b, err)
	profile := m.Dataset().Users[1]
	b.Run("snapshot", func(b *testing.B) {
		s := m.Snapshot()
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := s.Query(profile, 10, -1); err != nil {
				b.Fatal(err)
			}
		}
	})
	p, err := OneShardPool(m)
	benchErr(b, err)
	b.Run("pool-1", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := p.View().Query(profile, 10, -1); err != nil {
				b.Fatal(err)
			}
		}
	})
}

func seqIDs(start, n, step int) []uint32 {
	ids := make([]uint32, n)
	for i := range ids {
		ids[i] = uint32(start + i*step)
	}
	return ids
}
