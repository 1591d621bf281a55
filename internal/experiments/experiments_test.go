package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
)

// tinyHarness runs experiments at 1% scale with exact recall and a k cap
// so the whole suite stays CI-sized (NN-Descent's local join is quadratic
// in k, and the paper's DBLP k=50 is sized for 715k users, not 7k).
func tinyHarness() *Harness {
	return New(Options{Scale: 0.01, Seed: 42, RecallSample: 0, KCap: 12})
}

// skipIfShort gates the experiments that construct graphs (most of the
// suite's minute of runtime); `go test -short` keeps only the cheap
// dataset-shape checks.
func skipIfShort(t *testing.T) {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping graph-construction experiment in -short mode")
	}
}

// The Table II study is the most expensive experiment; tests that need it
// share one harness (and its dataset + ground-truth caches) and one run.
var (
	sharedOnce sync.Once
	sharedH    *Harness
	sharedT2   *Table2Result
	sharedErr  error
)

func sharedTable2(t *testing.T) (*Harness, *Table2Result) {
	t.Helper()
	sharedOnce.Do(func() {
		sharedH = tinyHarness()
		sharedT2, sharedErr = sharedH.Table2()
	})
	if sharedErr != nil {
		t.Fatal(sharedErr)
	}
	return sharedH, sharedT2
}

func TestTable1ShapesMatchPresets(t *testing.T) {
	h := tinyHarness()
	res, err := h.Table1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("Table1 rows = %d, want 4", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.Users <= 0 || row.Items <= 0 || row.Ratings <= 0 {
			t.Errorf("%s: degenerate stats %+v", row.Name, row)
		}
		if row.Density <= 0 || row.Density >= 1 {
			t.Errorf("%s: density %v out of range", row.Name, row.Density)
		}
	}
	// Arxiv and DBLP are co-authorship: |U| = |I|.
	for _, i := range []int{0, 3} {
		if res.Rows[i].Users != res.Rows[i].Items {
			t.Errorf("%s: co-authorship must have |U|=|I|", res.Rows[i].Name)
		}
	}
}

func TestFig1SimilarityDominates(t *testing.T) {
	skipIfShort(t)
	h := tinyHarness()
	res, err := h.Fig1()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Breakdowns) != 2 {
		t.Fatalf("Fig1 rows = %d, want 2", len(res.Breakdowns))
	}
	for _, b := range res.Breakdowns {
		// Fig 1's headline: similarity computation is the dominant cost of
		// the greedy baselines. At tiny scale the margin shrinks, so only
		// require a majority share.
		if b.SimilarityFrac < 0.5 {
			t.Errorf("%s: similarity fraction %.2f, want > 0.5", b.Algorithm, b.SimilarityFrac)
		}
	}
}

func TestFig4LongTails(t *testing.T) {
	h := tinyHarness()
	res, err := h.Fig4()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 4 {
		t.Fatalf("Fig4 series = %d, want 4", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.User) == 0 || len(s.Item) == 0 {
			t.Errorf("%s: empty CCDF", s.Dataset)
		}
		if s.User[0].P != 1 {
			t.Errorf("%s: CCDF must start at 1", s.Dataset)
		}
	}
}

func TestTable2And3Shape(t *testing.T) {
	skipIfShort(t)
	h, t2 := sharedTable2(t)
	if len(t2.Datasets) != 4 {
		t.Fatalf("Table2 datasets = %d, want 4", len(t2.Datasets))
	}
	for _, row := range t2.Datasets {
		for _, ar := range []AlgoRun{row.NNDescent, row.HyRec, row.KIFF} {
			if ar.Recall < 0 || ar.Recall > 1 {
				t.Errorf("%s/%s: recall %v out of range", row.Dataset, ar.Algorithm, ar.Recall)
			}
			if ar.Iters < 1 {
				t.Errorf("%s/%s: no iterations", row.Dataset, ar.Algorithm)
			}
		}
		// KIFF's core cost claim: strictly fewer similarity evaluations.
		if row.KIFF.ScanRate >= row.NNDescent.ScanRate {
			t.Errorf("%s: KIFF scan rate %.4f not below NN-Descent %.4f",
				row.Dataset, row.KIFF.ScanRate, row.NNDescent.ScanRate)
		}
		// The quality claim, stated scale-robustly: on the shrunken test
		// graphs NN-Descent's scan rate can exceed 100% (it effectively
		// brute-forces), so KIFF "losing" a point of recall to it is not
		// meaningful; KIFF must stay within 0.05 of the best baseline
		// everywhere and must dominate HyRec, whose budget is comparable.
		best := row.NNDescent.Recall
		if row.HyRec.Recall > best {
			best = row.HyRec.Recall
		}
		if row.KIFF.Recall < best-0.05 {
			t.Errorf("%s: KIFF recall %.3f more than 0.05 below best baseline %.3f",
				row.Dataset, row.KIFF.Recall, best)
		}
		if row.KIFF.Recall+1e-9 < row.HyRec.Recall {
			t.Errorf("%s: KIFF recall %.3f below HyRec %.3f",
				row.Dataset, row.KIFF.Recall, row.HyRec.Recall)
		}
	}
	t3 := h.Table3(t2)
	if t3.DRecallAvg < 0 {
		t.Errorf("average recall gain %v, want ≥ 0", t3.DRecallAvg)
	}
}

func TestTable4OverheadSmall(t *testing.T) {
	skipIfShort(t)
	h := tinyHarness()
	res, err := h.Table4()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("Table4 rows = %d, want 4", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.UPOnly <= 0 || row.UPAndIP <= 0 {
			t.Errorf("%s: missing load timings", row.Dataset)
		}
		// The paper's point: the overhead is a small fraction of total time.
		if row.DeltaOfTime > 0.5 {
			t.Errorf("%s: item-profile overhead %.0f%% implausibly high", row.Dataset, 100*row.DeltaOfTime)
		}
	}
}

func TestTable5RCSWithinBudget(t *testing.T) {
	skipIfShort(t)
	h := tinyHarness()
	res, err := h.Table5()
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range res.Rows {
		if row.AvgLen <= 0 {
			t.Errorf("%s: empty RCSs", row.Dataset)
		}
		if row.MaxScanRate <= 0 || row.MaxScanRate > 2 {
			t.Errorf("%s: max scan rate %v out of range", row.Dataset, row.MaxScanRate)
		}
	}
}

func TestFig5BreakdownConsistent(t *testing.T) {
	skipIfShort(t)
	h := tinyHarness()
	res, err := h.Fig5()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Bars) != 12 {
		t.Fatalf("Fig5 bars = %d, want 12 (3 algos × 4 datasets)", len(res.Bars))
	}
	for _, b := range res.Bars {
		sum := b.Preprocess + b.Candidates + b.Similarity
		if sum > b.Total*3/2 {
			t.Errorf("%s/%s: phases (%v) exceed total (%v) badly", b.Dataset, b.Algorithm, sum, b.Total)
		}
	}
}

func TestFig6Table6Consistent(t *testing.T) {
	skipIfShort(t)
	h := tinyHarness()
	fig, tab, err := h.Fig6Table6()
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 4 || len(tab.Rows) != 4 {
		t.Fatal("Fig6/Table6 must cover the 4 datasets")
	}
	for i, s := range fig.Series {
		// |RCS|cut = #iters × γ with γ = 2k (k possibly capped).
		if iters := tab.Rows[i].Iters; iters > 0 && s.Cut%iters != 0 {
			t.Errorf("%s: cut %d not a multiple of iters %d", s.Dataset, s.Cut, iters)
		}
		if s.Cut <= 0 {
			t.Errorf("%s: cut %d must be positive", s.Dataset, s.Cut)
		}
		if s.Trunc < 0 || s.Trunc > 1 {
			t.Errorf("%s: truncation fraction %v", s.Dataset, s.Trunc)
		}
	}
}

func TestFig7PositiveCorrelation(t *testing.T) {
	skipIfShort(t)
	h := tinyHarness()
	res, err := h.Fig7()
	if err != nil {
		t.Fatal(err)
	}
	// At tiny scale few users are truncated; when some are, the counting
	// order must correlate positively with both metrics (the paper's
	// claim that truncation does not exclude good candidates).
	if len(res.Points) > 0 {
		if res.MeanJaccard <= 0 || res.MeanCosine <= 0 {
			t.Errorf("mean Spearman J=%v C=%v, want > 0", res.MeanJaccard, res.MeanCosine)
		}
	}
}

func TestTable7InitializationGap(t *testing.T) {
	skipIfShort(t)
	h := tinyHarness()
	res, err := h.Table7()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 4 {
		t.Fatalf("Table7 rows = %d, want 4", len(res.Rows))
	}
	for _, row := range res.Rows {
		if row.TopKRecall <= row.RandRecall {
			t.Errorf("%s: RCS init %.2f not better than random %.2f",
				row.Dataset, row.TopKRecall, row.RandRecall)
		}
	}
}

func TestFig8Shapes(t *testing.T) {
	skipIfShort(t)
	h := tinyHarness()
	res, err := h.Fig8()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("Fig8 series = %d, want 3", len(res.Series))
	}
	var kiff, nnd Fig8Series
	for _, s := range res.Series {
		switch s.Algorithm {
		case "KIFF":
			kiff = s
		case "NN-Descent":
			nnd = s
		}
	}
	if len(kiff.Points) == 0 || len(nnd.Points) == 0 {
		t.Fatal("missing traces")
	}
	// The paper's headline convergence contrast: KIFF's first iteration
	// already delivers a strong approximation (0.82 on Arxiv) at a far
	// smaller scan rate than NN-Descent's first iteration, whose random
	// init plus local join burns through similarity evaluations. (On the
	// shrunken test graph NN-Descent's first join is near-exhaustive, so
	// absolute first-iteration recalls are not comparable across
	// algorithms here; the cost side is.)
	if kiff.Points[0].Recall < 0.4 {
		t.Errorf("KIFF first-iter recall %.2f, want ≥ 0.4 (RCS head start)", kiff.Points[0].Recall)
	}
	if kiff.Points[0].ScanRate >= nnd.Points[0].ScanRate {
		t.Errorf("KIFF first-iter scan rate %.4f not below NN-Descent %.4f",
			kiff.Points[0].ScanRate, nnd.Points[0].ScanRate)
	}
	// And it finishes with less similarity work.
	if kiff.Points[len(kiff.Points)-1].ScanRate >= nnd.Points[len(nnd.Points)-1].ScanRate {
		t.Errorf("KIFF final scan rate %.4f not below NN-Descent %.4f",
			kiff.Points[len(kiff.Points)-1].ScanRate, nnd.Points[len(nnd.Points)-1].ScanRate)
	}
}

func TestTable8KIFFStable(t *testing.T) {
	skipIfShort(t)
	h, t2 := sharedTable2(t)
	res, err := h.Table8(t2)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Reduced.Datasets) != 4 {
		t.Fatal("Table8 must cover the 4 datasets")
	}
	for i, red := range res.Reduced.Datasets {
		def := res.Default.Datasets[i]
		// KIFF's recall must be far less sensitive to k than the baselines'
		// (paper: identical recall at both k values).
		kiffDrop := def.KIFF.Recall - red.KIFF.Recall
		if kiffDrop > 0.1 {
			t.Errorf("%s: KIFF recall dropped %.2f when k was reduced", red.Dataset, kiffDrop)
		}
	}
}

func TestFig9Sweep(t *testing.T) {
	skipIfShort(t)
	h := tinyHarness()
	res, err := h.Fig9()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 4 {
		t.Fatal("Fig9 must cover the 4 datasets")
	}
	for _, s := range res.Series {
		if len(s.Points) != len(Fig9Gammas) {
			t.Fatalf("%s: %d points, want %d", s.Dataset, len(s.Points), len(Fig9Gammas))
		}
		// Larger γ ⇒ fewer iterations (monotone non-increasing).
		for i := 1; i < len(s.Points); i++ {
			if s.Points[i].Iters > s.Points[i-1].Iters {
				t.Errorf("%s: iterations increased with γ (%d→%d)",
					s.Dataset, s.Points[i-1].Iters, s.Points[i].Iters)
			}
		}
	}
}

func TestTable9DensityLadder(t *testing.T) {
	skipIfShort(t)
	h := tinyHarness()
	res, err := h.Table9()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 5 {
		t.Fatalf("Table9 rows = %d, want 5", len(res.Rows))
	}
	for i := 1; i < len(res.Rows); i++ {
		if res.Rows[i].Density >= res.Rows[i-1].Density {
			t.Errorf("density must fall along the ladder: %v then %v",
				res.Rows[i-1].Density, res.Rows[i].Density)
		}
		if res.Rows[i].AvgRCS >= res.Rows[i-1].AvgRCS {
			t.Errorf("avg |RCS| must fall with density: %v then %v",
				res.Rows[i-1].AvgRCS, res.Rows[i].AvgRCS)
		}
	}
}

func TestFig10ScanRateCorrelatesWithDensity(t *testing.T) {
	skipIfShort(t)
	h := tinyHarness()
	res, err := h.Fig10()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != 5 {
		t.Fatalf("Fig10 points = %d, want 5", len(res.Points))
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	// The paper's Fig 10b: KIFF's scan rate falls sharply with density.
	if last.KIFFScan >= first.KIFFScan {
		t.Errorf("KIFF scan rate did not fall with density: %.4f → %.4f",
			first.KIFFScan, last.KIFFScan)
	}
	for _, pt := range res.Points {
		if pt.KIFFRecall+0.02 < pt.TargetRecall && pt.KIFFBeta != fig10Betas[len(fig10Betas)-1] {
			t.Errorf("%s: β search stopped at %.3f recall below target %.3f",
				pt.Dataset, pt.KIFFRecall, pt.TargetRecall)
		}
	}
}

func TestRegistryAndRunAll(t *testing.T) {
	skipIfShort(t)
	if len(IDs()) != len(Registry) {
		t.Fatal("IDs out of sync with Registry")
	}
	for _, id := range []string{"table1", "table2", "fig8", "fig10"} {
		if _, ok := Registry[id]; !ok {
			t.Errorf("registry missing %q", id)
		}
	}
	// RunAll on a minuscule harness exercises every experiment end to end
	// and must produce output mentioning each paper artifact.
	var buf bytes.Buffer
	h := New(Options{Scale: 0.005, Seed: 7, RecallSample: 150, KCap: 6, Out: &buf})
	if err := RunAll(h); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	out := buf.String()
	for _, want := range []string{
		"Table I ", "Fig 1 ", "Fig 4 ", "Table II ", "Table III ",
		"Table IV ", "Table V ", "Fig 5 ", "Fig 6 ", "Fig 7 ",
		"Table VII ", "Fig 8 ", "Table VIII ", "Fig 9 ", "Table IX ", "Fig 10 ",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("RunAll output missing %q", want)
		}
	}
}

func TestDataDirDumpsFigureSeries(t *testing.T) {
	skipIfShort(t)
	dir := t.TempDir()
	h := New(Options{Scale: 0.01, Seed: 3, RecallSample: 100, KCap: 6, DataDir: dir})
	if _, err := h.Fig4(); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Fig9(); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	names := map[string]bool{}
	for _, e := range entries {
		names[e.Name()] = true
	}
	for _, want := range []string{"fig4_arxiv_up.tsv", "fig4_wikipedia_ip.tsv", "fig9_arxiv.tsv"} {
		if !names[want] {
			t.Errorf("missing dumped series %s (have %v)", want, names)
		}
	}
	// Dumped series must have a header line and at least one data row.
	data, err := os.ReadFile(filepath.Join(dir, "fig9_arxiv.tsv"))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) < 2 || !strings.HasPrefix(lines[0], "#") {
		t.Errorf("malformed dump:\n%s", data)
	}
}

func TestBetaSweepTradeoff(t *testing.T) {
	skipIfShort(t)
	h := tinyHarness()
	res, err := h.BetaSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(BetaSweepValues) {
		t.Fatalf("points = %d, want %d", len(res.Points), len(BetaSweepValues))
	}
	// Monotone trade-off directions (§V-B2): larger β must never increase
	// the scan rate, and recall must never improve. A small slack absorbs
	// run-to-run termination jitter: the changes counter depends on heap
	// update interleaving, so the β threshold can fire one iteration apart
	// across runs.
	for i := 1; i < len(res.Points); i++ {
		if res.Points[i].ScanRate > res.Points[i-1].ScanRate+0.01 {
			t.Errorf("scan rate rose with β: %v → %v",
				res.Points[i-1].ScanRate, res.Points[i].ScanRate)
		}
		if res.Points[i].Recall > res.Points[i-1].Recall+0.01 {
			t.Errorf("recall rose with β: %v → %v",
				res.Points[i-1].Recall, res.Points[i].Recall)
		}
	}
}

func TestHyRecRSweepTradeoff(t *testing.T) {
	skipIfShort(t)
	// The tiny 1% wikipedia (~120 users) is too small for r to matter:
	// neighbors-of-neighbors already cover almost every user, so the
	// random picks land on already-marked candidates. Use 5% (~300 users),
	// where the sweep showed a clear volume increase. One worker: HyRec's
	// star join updates shared heaps from every worker, so with more than
	// one the per-iteration scan depends on scheduling.
	h := New(Options{Scale: 0.05, Seed: 42, Workers: 1, RecallSample: 0, KCap: 12})
	res, err := h.HyRecRSweep()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Points) != len(HyRecRSweepValues) {
		t.Fatalf("points = %d, want %d", len(res.Points), len(HyRecRSweepValues))
	}
	// §IV-D: random candidates cost similarity work. Total scan depends on
	// when the β threshold fires (which can shift with r on tiny graphs),
	// so assert on what r directly controls: evaluations per iteration.
	perIter := func(p HyRecRPoint) float64 {
		if p.Iters == 0 {
			return 0
		}
		return p.ScanRate / float64(p.Iters)
	}
	first, last := res.Points[0], res.Points[len(res.Points)-1]
	if perIter(last) <= perIter(first) {
		t.Errorf("r=%d per-iteration scan %v not above r=0's %v",
			last.R, perIter(last), perIter(first))
	}
	// And must not hurt recall.
	if last.Recall < first.Recall-0.02 {
		t.Errorf("r=%d recall %v fell below r=0's %v", last.R, last.Recall, first.Recall)
	}
}
