package main

// Build-path micro-benchmark emitter: `kiffbench -bench-out BENCH.json`
// measures the hot paths of construction, persistence and serving with
// testing.Benchmark and writes a machine-readable JSON record. The
// committed BENCH_pr<N>.json files form the repository's performance
// trajectory: each storage/algorithm PR re-runs the emitter and checks
// the allocation and timing deltas in.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"kiff"
	"kiff/internal/core"
	"kiff/internal/dataset"
	"kiff/internal/rcs"
	"kiff/internal/wal"
)

// benchResult is one benchmark row of the JSON record.
type benchResult struct {
	Name        string  `json:"name"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	// Tolerance is the allowed ns/op growth ratio when this record is
	// used as a -compare baseline; 0 falls back to the global
	// -compare-tolerance. Noisy benches (parallel or population-growing
	// ones) carry a looser bound so they cannot mask real regressions in
	// the stable ones, which keep a tight one.
	Tolerance float64 `json:"tolerance,omitempty"`
	// PagesCopiedPerOp / PagesSharedPerOp record the copy-on-write chunk
	// accounting for publication benches: how many graph+view header pages
	// each publish rebuilt versus aliased from the previous snapshot.
	PagesCopiedPerOp float64 `json:"pages_copied_per_op,omitempty"`
	PagesSharedPerOp float64 `json:"pages_shared_per_op,omitempty"`
	// Recall / SimEvalsPerOp annotate construction benches with the §IV-C
	// quality/cost observables: exact recall against brute-force ground
	// truth, and the (deterministic) similarity-evaluation count of one
	// build. SimEvalsRatio additionally relates an approximate builder's
	// SimEvals to the standard KIFF build on the same fixture — the
	// headline statistic of the bucketed engine.
	Recall        float64 `json:"recall,omitempty"`
	SimEvalsPerOp float64 `json:"sim_evals_per_op,omitempty"`
	SimEvalsRatio float64 `json:"sim_evals_ratio,omitempty"`
}

// benchTolerances annotates each emitted bench with its baseline
// tolerance (see benchResult.Tolerance). The stable single-threaded
// codec and construction paths hold a tight bound; scheduler-dependent
// benches (sharded inserts/rebuilds, snapshot publication) get a looser
// one, because CI runners vary wildly in core count.
var benchTolerances = map[string]float64{
	"rcs-build":                    1.6,
	"kiff-build":                   1.6,
	"kiff-build-wiki05":            1.6,
	"maintainer-build":             1.6,
	"kiff-build-bucketed":          1.6,
	"graph-encode":                 1.5,
	"graph-decode":                 1.5,
	"dataset-encode":               1.5,
	"dataset-decode":               1.5,
	"graph-load-heap":              1.6,
	"graph-load-mapped":            1.6,
	"dataset-load-heap":            1.6,
	"dataset-load-mapped":          1.6,
	"edgelist-load":                1.6,
	"snapshot-publish":             2.5,
	"snapshot-publish-full":        2.0,
	"snapshot-publish-incremental": 3.0,
	"snapshot-query":               2.0,
	"snapshot-query-weighted":      2.0,
	"insert-single":                2.0,
	"maintainer-insert-wal":        2.5,
	"insert-sharded":               2.5,
	"rebuild-single":               2.0,
	"rebuild-sharded":              2.5,
}

// benchReport is the top-level JSON record.
type benchReport struct {
	Schema  string        `json:"schema"`
	Go      string        `json:"go"`
	Arch    string        `json:"arch"`
	Dataset string        `json:"dataset"`
	Benches []benchResult `json:"benches"`
}

func measure(name string, fn func(b *testing.B)) benchResult {
	r := testing.Benchmark(fn)
	return benchResult{
		Name:        name,
		NsPerOp:     float64(r.NsPerOp()),
		BytesPerOp:  r.AllocedBytesPerOp(),
		AllocsPerOp: r.AllocsPerOp(),
		Tolerance:   benchTolerances[name],
	}
}

// validBenchNames lists every bench runBenchOut can emit, in emission
// order — the vocabulary -bench-names is validated against.
var validBenchNames = []string{
	"rcs-build",
	"kiff-build",
	"kiff-build-wiki05",
	"maintainer-build",
	"kiff-build-bucketed",
	"graph-encode",
	"graph-decode",
	"dataset-encode",
	"dataset-decode",
	"graph-load-heap",
	"graph-load-mapped",
	"dataset-load-heap",
	"dataset-load-mapped",
	"edgelist-load",
	"snapshot-publish",
	"snapshot-publish-full",
	"snapshot-publish-incremental",
	"insert-single",
	"maintainer-insert-wal",
	"insert-sharded",
	"rebuild-single",
	"rebuild-sharded",
	"snapshot-query",
	"snapshot-query-weighted",
}

// benchFilter selects a subset of the named benches: nil/empty selects
// everything.
type benchFilter map[string]bool

// parseBenchFilter parses a comma-separated bench-name list. A name
// outside validBenchNames is an error (→ nonzero exit) rather than a
// silently empty selection — a typo in a CI bench list must fail the
// step, not skip the gate.
func parseBenchFilter(names string) (benchFilter, error) {
	if names == "" {
		return nil, nil
	}
	valid := make(map[string]bool, len(validBenchNames))
	for _, n := range validBenchNames {
		valid[n] = true
	}
	f := benchFilter{}
	for _, n := range strings.Split(names, ",") {
		if n = strings.TrimSpace(n); n == "" {
			continue
		}
		if !valid[n] {
			return nil, fmt.Errorf("unknown bench name %q; valid names: %s",
				n, strings.Join(validBenchNames, ", "))
		}
		f[n] = true
	}
	return f, nil
}

func (f benchFilter) selects(name string) bool { return f == nil || f[name] }

// compareAgainst checks the freshly measured report against a committed
// baseline record: any bench present in both whose ns/op grew beyond
// tolerance× the baseline is a regression. It prints the full delta table
// to stderr, listing benches the baseline lacks as new, and returns an
// error (→ nonzero exit) listing the regressions, so CI can gate — or
// merely surface — construction-path slowdowns against the committed
// BENCH_pr<N>.json trajectory.
func compareAgainst(oldPath string, report benchReport, tolerance float64, stderr io.Writer) error {
	raw, err := os.ReadFile(oldPath)
	if err != nil {
		return fmt.Errorf("compare: %w", err)
	}
	var old benchReport
	if err := json.Unmarshal(raw, &old); err != nil {
		return fmt.Errorf("compare: %s: %w", oldPath, err)
	}
	oldBy := make(map[string]benchResult, len(old.Benches))
	for _, b := range old.Benches {
		oldBy[b.Name] = b
	}
	var regressions []string
	for _, b := range report.Benches {
		prev, ok := oldBy[b.Name]
		if !ok || prev.NsPerOp <= 0 {
			fmt.Fprintf(stderr, "kiffbench: compare %-18s %12s -> %12.0f ns/op  (new)\n", b.Name, "-", b.NsPerOp)
			continue
		}
		// The baseline's per-bench tolerance wins over the global flag:
		// a noisy bench's slack must not loosen (nor tighten) the gate on
		// the stable ones.
		tol := tolerance
		if prev.Tolerance > 0 {
			tol = prev.Tolerance
		}
		ratio := b.NsPerOp / prev.NsPerOp
		fmt.Fprintf(stderr, "kiffbench: compare %-18s %12.0f -> %12.0f ns/op  (%.2fx, tolerance %.2fx)\n",
			b.Name, prev.NsPerOp, b.NsPerOp, ratio, tol)
		if ratio > tol {
			regressions = append(regressions,
				fmt.Sprintf("%s: %.0f -> %.0f ns/op (%.2fx > %.2fx tolerance)",
					b.Name, prev.NsPerOp, b.NsPerOp, ratio, tol))
		}
	}
	if len(regressions) > 0 {
		return fmt.Errorf("compare: %d bench(es) regressed vs %s:\n  %s",
			len(regressions), oldPath, strings.Join(regressions, "\n  "))
	}
	return nil
}

// benchOptions parameterizes runBenchOut beyond the output path.
type benchOptions struct {
	// Names restricts which benches run (comma-separated; empty = all).
	Names string
	// Compare, when set, checks the results against this baseline record
	// and fails on regressions beyond Tolerance.
	Compare string
	// Tolerance is the allowed ns/op growth ratio for -compare (e.g. 1.5
	// = fail past +50%).
	Tolerance float64
	// RecallFloor, when > 0, fails the run unless the bucketed builder's
	// recall on the scale-0.5 fixture reaches RecallFloor × standard
	// KIFF's recall (the CI recall smoke gate).
	RecallFloor float64
}

// runBenchOut measures the build/persist/serve hot paths on the Wikipedia
// replica at 5% scale (the same fixture bench_test.go's ablation benches
// use) and writes the JSON record to path ("-" = stdout).
func runBenchOut(path string, opts benchOptions, stderr io.Writer) error {
	d, err := dataset.Wikipedia.Generate(0.05, 3)
	if err != nil {
		return err
	}
	k := 10
	fmt.Fprintf(stderr, "kiffbench: bench fixture %s\n", d.Stats())

	report := benchReport{
		Schema:  "kiff/bench/v1",
		Go:      runtime.Version(),
		Arch:    runtime.GOOS + "/" + runtime.GOARCH,
		Dataset: fmt.Sprintf("wikipedia scale=0.05 seed=3 k=%d (publish benches: scale=0.2; construction benches: scale=0.5; edgelist-load: gowalla scale=0.1 seed=42; snapshot-query-weighted: gowalla scale=0.1 k=20)", k),
	}
	filter, err := parseBenchFilter(opts.Names)
	if err != nil {
		return err
	}
	add := func(name string, fn func(b *testing.B)) {
		if filter.selects(name) {
			report.Benches = append(report.Benches, measure(name, fn))
		}
	}

	add("rcs-build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			rcs.Build(d, rcs.BuildOptions{})
		}
	})

	var built *kiff.Result
	add("kiff-build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			res, err := core.Build(d, core.DefaultConfig(k))
			if err != nil {
				b.Fatal(err)
			}
			_ = res
		}
	})
	if built, err = kiff.Build(d, kiff.Options{K: k}); err != nil {
		return err
	}

	// Construction cost-curve benches at 10× the fixture population
	// (wikipedia scale 0.5): the standard KIFF baseline, the serving cold
	// build (NewMaintainer: one exact walk per user), and the bucketed
	// divide-and-conquer builder at its benchmark operating point (5 bands
	// × 96-user buckets × 1 sweep). Every row carries exact recall; the
	// KIFF and bucketed rows also carry the §IV-C cost observable, the
	// deterministic SimEvals count, and the bucketed row records its
	// SimEvals as a ratio of the standard build's, the headline of the
	// sub-quadratic trade. Each builder is built and scored only when its
	// row, or the recall floor comparing the two KIFF builders, asks.
	var floorErr error
	runStd := filter.selects("kiff-build-wiki05") || opts.RecallFloor > 0
	runBucketed := filter.selects("kiff-build-bucketed") || opts.RecallFloor > 0
	if runStd || runBucketed || filter.selects("maintainer-build") {
		d05, err := dataset.Wikipedia.Generate(0.5, 3)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "kiffbench: construction fixture %s\n", d05.Stats())
		stdOpts := kiff.Options{K: k, Seed: 3}
		var std scoredBuild
		if runStd {
			if std, err = buildAndScore(d05, stdOpts); err != nil {
				return err
			}
			add("kiff-build-wiki05", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := kiff.Build(d05, stdOpts); err != nil {
						b.Fatal(err)
					}
				}
			})
			if r := findBench(report, "kiff-build-wiki05"); r != nil {
				r.Recall = std.recall
				r.SimEvalsPerOp = float64(std.simEvals)
			}
		}
		if filter.selects("maintainer-build") {
			m, err := kiff.NewMaintainer(d05, stdOpts)
			if err != nil {
				return err
			}
			recall, err := kiff.Recall(d05, m.Graph(), stdOpts, 0)
			if err != nil {
				return err
			}
			add("maintainer-build", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := kiff.NewMaintainer(d05, stdOpts); err != nil {
						b.Fatal(err)
					}
				}
			})
			findBench(report, "maintainer-build").Recall = recall
		}
		if runBucketed {
			bucketedOpts := kiff.Options{K: k, Seed: 3, Algorithm: kiff.Bucketed,
				Bands: 5, BucketSize: 96, Sweeps: 1}
			bucketed, err := buildAndScore(d05, bucketedOpts)
			if err != nil {
				return err
			}
			add("kiff-build-bucketed", func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := kiff.Build(d05, bucketedOpts); err != nil {
						b.Fatal(err)
					}
				}
			})
			var ratio float64
			if runStd {
				ratio = float64(bucketed.simEvals) / float64(std.simEvals)
				fmt.Fprintf(stderr, "kiffbench: bucketed recall %.4f (kiff %.4f), SimEvals %d vs %d (%.2fx)\n",
					bucketed.recall, std.recall, bucketed.simEvals, std.simEvals, ratio)
			} else {
				fmt.Fprintf(stderr, "kiffbench: bucketed recall %.4f, SimEvals %d\n", bucketed.recall, bucketed.simEvals)
			}
			if r := findBench(report, "kiff-build-bucketed"); r != nil {
				r.Recall = bucketed.recall
				r.SimEvalsPerOp = float64(bucketed.simEvals)
				r.SimEvalsRatio = ratio
			}
			if opts.RecallFloor > 0 && bucketed.recall < opts.RecallFloor*std.recall {
				floorErr = fmt.Errorf("recall floor: bucketed recall %.4f < %.2f × kiff recall %.4f",
					bucketed.recall, opts.RecallFloor, std.recall)
			}
		}
	}

	var encoded bytes.Buffer
	if err := kiff.WriteGraphBinary(&encoded, built.Graph); err != nil {
		return err
	}
	add("graph-encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := kiff.WriteGraphBinary(io.Discard, built.Graph); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("graph-decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := kiff.ReadGraphBinary(bytes.NewReader(encoded.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})

	var dsEncoded bytes.Buffer
	if err := kiff.WriteDatasetBinary(&dsEncoded, d); err != nil {
		return err
	}
	add("dataset-encode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if err := kiff.WriteDatasetBinary(io.Discard, d); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("dataset-decode", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := kiff.ReadDatasetBinary(bytes.NewReader(dsEncoded.Bytes())); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Load-path benches: heap decode vs zero-copy mapped decode of the
	// same checkpoints. allocs/op is the headline — the mapped loads stay
	// O(1) in graph size.
	tmp, err := os.MkdirTemp("", "kiffbench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	gpath := filepath.Join(tmp, "graph.kfg")
	dpath := filepath.Join(tmp, "data.kfd")
	if err := kiff.SaveGraph(gpath, built.Graph); err != nil {
		return err
	}
	if err := kiff.SaveDataset(dpath, d); err != nil {
		return err
	}
	add("graph-load-heap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := kiff.LoadGraph(gpath); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("graph-load-mapped", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			mg, err := kiff.LoadGraphMapped(gpath)
			if err != nil {
				b.Fatal(err)
			}
			if err := mg.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("dataset-load-heap", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			if _, err := kiff.LoadDataset(dpath); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("dataset-load-mapped", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			md, err := kiff.LoadDatasetMapped(dpath)
			if err != nil {
				b.Fatal(err)
			}
			if err := md.Close(); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The edge-list loader behind kiffserve -in: kiff.Load, item index
	// included, of the gowalla scale-0.1 fixture (seed 42, the one
	// kiffload's write-wal workload serves), written to memory once.
	if filter.selects("edgelist-load") {
		gw, err := dataset.Gowalla.Generate(0.1, 42)
		if err != nil {
			return err
		}
		var edges bytes.Buffer
		if err := kiff.WriteDataset(&edges, gw); err != nil {
			return err
		}
		add("edgelist-load", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := kiff.Load(bytes.NewReader(edges.Bytes()), kiff.LoadOptions{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	add("snapshot-publish", func(b *testing.B) {
		m, err := kiff.NewMaintainer(mustClone(d), kiff.Options{K: k})
		if err != nil {
			b.Fatal(err)
		}
		n := m.Dataset().NumUsers()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			// One rating update + single-user Rebuild + snapshot
			// publication, over a fixed-size population so per-op cost
			// does not depend on b.N (Inserts would grow |U|).
			if err := m.AddRating(uint32(i%n), uint32(i%40), float64(1+i%5)); err != nil {
				b.Fatal(err)
			}
			if err := m.Rebuild(nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	// Copy-on-write publication cost at 4x population (wikipedia scale
	// 0.2): "full" is the from-scratch flat export of the whole graph —
	// what every publication cost before page-level COW, and what the
	// first publication still costs — while "incremental" is the amortized
	// publish() after a single-user Insert. The incremental number is read
	// from the maintainer's publication counters rather than wall-clocked
	// around Insert, because Insert folds the KNN refinement in with the
	// publish and would drown the quantity under test.
	if filter.selects("snapshot-publish-full") || filter.selects("snapshot-publish-incremental") {
		d4, err := dataset.Wikipedia.Generate(0.2, 3)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "kiffbench: publish fixture %s\n", d4.Stats())
		m4, err := kiff.NewMaintainer(d4, kiff.Options{K: k})
		if err != nil {
			return err
		}
		add("snapshot-publish-full", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				_ = m4.Graph() // flat CSR export of every page
			}
		})
		if filter.selects("snapshot-publish-incremental") {
			res, err := measureIncrementalPublish(m4, d4)
			if err != nil {
				return err
			}
			report.Benches = append(report.Benches, res)
		}
		if full, incr := findBench(report, "snapshot-publish-full"), findBench(report, "snapshot-publish-incremental"); full != nil && incr != nil && incr.NsPerOp > 0 {
			fmt.Fprintf(stderr, "kiffbench: incremental publish %.0f ns/op vs full export %.0f ns/op (%.1fx cheaper, %.1f pages copied / %.1f shared per publish)\n",
				incr.NsPerOp, full.NsPerOp, full.NsPerOp/incr.NsPerOp, incr.PagesCopiedPerOp, incr.PagesSharedPerOp)
		}
	}

	// Sharded-vs-single maintenance throughput: the same workload driven
	// through one Maintainer and through a 4-shard pool. Inserts arrive
	// as 64-profile batches (the pool fans a batch out across its shards
	// in parallel, and each shard's candidate sets are ~1/N the size);
	// rebuilds refresh 32 rating-touched users per op over a fixed
	// population. The insert benches grow the population with b.N — the
	// growth is identical on both sides, so the ratio stays meaningful
	// (and their baseline tolerance is loose; see benchTolerances).
	const (
		benchShards      = 4
		insertBatchSize  = 64
		rebuildDirtySize = 32
	)
	insertProfiles := func(n int) []kiff.Profile {
		ps := make([]kiff.Profile, n)
		for i := range ps {
			ps[i] = d.Users[i%d.NumUsers()].Clone()
		}
		return ps
	}
	add("insert-single", func(b *testing.B) {
		m, err := kiff.NewMaintainer(mustClone(d), kiff.Options{K: k})
		if err != nil {
			b.Fatal(err)
		}
		batch := insertProfiles(insertBatchSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.InsertBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("maintainer-insert-wal", func(b *testing.B) {
		// insert-single with a write-ahead log attached: the delta against
		// insert-single is the durability tax of encoding + appending one
		// KFL1 record per profile. SyncNever isolates that tax from fsync
		// latency, which is a policy choice (-wal-sync), not a fixed cost.
		m, err := kiff.NewMaintainer(mustClone(d), kiff.Options{K: k})
		if err != nil {
			b.Fatal(err)
		}
		dir, err := os.MkdirTemp("", "kiffbench-wal-")
		if err != nil {
			b.Fatal(err)
		}
		defer os.RemoveAll(dir)
		if _, err := m.OpenWAL(filepath.Join(dir, "wal.kfl"), wal.Options{Sync: wal.SyncNever}); err != nil {
			b.Fatal(err)
		}
		defer m.CloseWAL()
		batch := insertProfiles(insertBatchSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := m.InsertBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("insert-sharded", func(b *testing.B) {
		p, err := kiff.NewShardedMaintainer(d, benchShards, kiff.Options{K: k})
		if err != nil {
			b.Fatal(err)
		}
		batch := insertProfiles(insertBatchSize)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := p.InsertBatch(batch); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("rebuild-single", func(b *testing.B) {
		m, err := kiff.NewMaintainer(mustClone(d), kiff.Options{K: k})
		if err != nil {
			b.Fatal(err)
		}
		n := m.Dataset().NumUsers()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < rebuildDirtySize; j++ {
				u := uint32((i*rebuildDirtySize + j*7) % n)
				if err := m.AddRating(u, uint32((i+j)%40), float64(1+j%5)); err != nil {
					b.Fatal(err)
				}
			}
			if err := m.Rebuild(nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	add("rebuild-sharded", func(b *testing.B) {
		p, err := kiff.NewShardedMaintainer(d, benchShards, kiff.Options{K: k})
		if err != nil {
			b.Fatal(err)
		}
		n := p.NumUsers()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for j := 0; j < rebuildDirtySize; j++ {
				u := uint32((i*rebuildDirtySize + j*7) % n)
				if err := p.AddRating(u, uint32((i+j)%40), float64(1+j%5)); err != nil {
					b.Fatal(err)
				}
			}
			if err := p.Rebuild(nil); err != nil {
				b.Fatal(err)
			}
		}
	})

	add("snapshot-query", func(b *testing.B) {
		m, err := kiff.NewMaintainer(mustClone(d), kiff.Options{K: k})
		if err != nil {
			b.Fatal(err)
		}
		s := m.Snapshot()
		profile := d.Users[1]
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Query(profile, k, 2*k); err != nil {
				b.Fatal(err)
			}
		}
	})

	// The weighted query path: an exact cosine query over gowalla's visit
	// counts, for a user's profile with every third item dropped. The
	// fixture is built once, outside the timed closure.
	if filter.selects("snapshot-query-weighted") {
		s, profile, err := weightedQueryFixture()
		if err != nil {
			return err
		}
		add("snapshot-query-weighted", func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := s.Query(profile, 20, -1); err != nil {
					b.Fatal(err)
				}
			}
		})
	}

	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	out = append(out, '\n')
	if path == "-" {
		if _, err = os.Stdout.Write(out); err != nil {
			return err
		}
	} else {
		if err := os.WriteFile(path, out, 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stderr, "kiffbench: wrote %s (%d benches)\n", path, len(report.Benches))
	}
	// Gates run after writing, so the fresh record survives a failure.
	if floorErr != nil {
		return floorErr
	}
	if opts.Compare != "" {
		return compareAgainst(opts.Compare, report, opts.Tolerance, stderr)
	}
	return nil
}

// measureIncrementalPublish drives single-user Inserts through the
// maintainer and reports the amortized publish() cost from the
// publication counters: ns_per_op is ΔPublishNs/ΔPublishes, the page
// stats are the per-publish copy-on-write accounting, and bytes_per_op
// is the edge-record bytes exported into dirty rows per publish
// (ΔEntriesCopied × 16 bytes per record). allocs_per_op is not
// measurable through counters and stays 0.
func measureIncrementalPublish(m *kiff.Maintainer, d *kiff.Dataset) (benchResult, error) {
	const name = "snapshot-publish-incremental"
	const ops = 256
	// Warm-up inserts move the maintainer past the first (full)
	// publication's neighborhood churn so the measured window reflects
	// steady-state incremental publishing.
	for i := 0; i < 16; i++ {
		if _, err := m.Insert(d.Users[i%d.NumUsers()].Clone()); err != nil {
			return benchResult{}, err
		}
	}
	before := m.Counters()
	for i := 0; i < ops; i++ {
		if _, err := m.Insert(d.Users[(i*7)%d.NumUsers()].Clone()); err != nil {
			return benchResult{}, err
		}
	}
	after := m.Counters()
	pubs := after.Publishes - before.Publishes
	if pubs <= 0 {
		return benchResult{}, fmt.Errorf("kiffbench: %s: no publications recorded over %d inserts", name, ops)
	}
	return benchResult{
		Name:             name,
		NsPerOp:          float64(after.PublishNs-before.PublishNs) / float64(pubs),
		BytesPerOp:       (after.EntriesCopied - before.EntriesCopied) * 16 / pubs,
		Tolerance:        benchTolerances[name],
		PagesCopiedPerOp: float64(after.PagesCopied-before.PagesCopied) / float64(pubs),
		PagesSharedPerOp: float64(after.PagesShared-before.PagesShared) / float64(pubs),
	}, nil
}

// weightedQueryFixture builds the snapshot-query-weighted fixture: a k=20
// snapshot over gowalla at scale 0.1, and as the query the first profile
// of at least 16 items with every third item dropped.
func weightedQueryFixture() (*kiff.Snapshot, kiff.Profile, error) {
	gw, err := dataset.Gowalla.Generate(0.1, 3)
	if err != nil {
		return nil, kiff.Profile{}, err
	}
	g, err := kiff.Build(gw, kiff.Options{K: 20})
	if err != nil {
		return nil, kiff.Profile{}, err
	}
	s, err := kiff.NewSnapshot(g.Graph, gw, kiff.Options{K: 20})
	if err != nil {
		return nil, kiff.Profile{}, err
	}
	var profile kiff.Profile
	for _, p := range gw.Users {
		if p.Len() >= 16 {
			for i, id := range p.IDs {
				if i%3 != 2 {
					profile.IDs = append(profile.IDs, id)
					profile.Weights = append(profile.Weights, p.Weight(i))
				}
			}
			break
		}
	}
	return s, profile, nil
}

// scoredBuild is one construction of the scale-0.5 fixture: its exact
// recall and its similarity evaluations.
type scoredBuild struct {
	recall   float64
	simEvals int64
}

// buildAndScore builds d's graph with opts once and scores it.
func buildAndScore(d *kiff.Dataset, opts kiff.Options) (scoredBuild, error) {
	res, err := kiff.Build(d, opts)
	if err != nil {
		return scoredBuild{}, err
	}
	recall, err := kiff.Recall(d, res.Graph, opts, 0)
	if err != nil {
		return scoredBuild{}, err
	}
	return scoredBuild{recall: recall, simEvals: res.Run.SimEvals}, nil
}

// findBench returns the named result from the report, or nil.
func findBench(report benchReport, name string) *benchResult {
	for i := range report.Benches {
		if report.Benches[i].Name == name {
			return &report.Benches[i]
		}
	}
	return nil
}

// mustClone deep-copies the fixture dataset so maintainer benchmarks can
// mutate it without affecting the other measurements.
func mustClone(d *kiff.Dataset) *kiff.Dataset {
	profiles := make([]kiff.Profile, d.NumUsers())
	for i, u := range d.Users {
		profiles[i] = u.Clone()
	}
	nd, err := dataset.New(d.Name, profiles, d.NumItems())
	if err != nil {
		panic(err)
	}
	nd.EnsureItemProfiles()
	return nd
}
