package similarity

import (
	"math"
	"sync/atomic"
	"testing"

	"kiff/internal/dataset"
)

func testDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	// user 0: items 0,1   user 1: items 1,2   user 2: item 3   user 3: items 0,1,2
	return dataset.FromProfiles("sim-test", []map[uint32]float64{
		{0: 1, 1: 1},
		{1: 1, 2: 1},
		{3: 1},
		{0: 1, 1: 1, 2: 1},
	}, true)
}

func weightedDataset(t *testing.T) *dataset.Dataset {
	t.Helper()
	return dataset.FromProfiles("sim-weighted", []map[uint32]float64{
		{0: 3, 1: 4},
		{0: 3, 1: 4},
		{2: 1},
		{0: 1},
	}, false)
}

func TestCosineBinary(t *testing.T) {
	f := Cosine{}.Prepare(testDataset(t)).Pair
	// users 0,1 share item 1: 1/sqrt(2*2) = 0.5
	if got := f(0, 1); math.Abs(got-0.5) > 1e-12 {
		t.Errorf("cosine(0,1) = %v, want 0.5", got)
	}
	// disjoint
	if got := f(0, 2); got != 0 {
		t.Errorf("cosine(0,2) = %v, want 0", got)
	}
	// 0 vs 3: share 2 of (2,3) items: 2/sqrt(6)
	if got, want := f(0, 3), 2/math.Sqrt(6); math.Abs(got-want) > 1e-12 {
		t.Errorf("cosine(0,3) = %v, want %v", got, want)
	}
}

func TestCosineWeighted(t *testing.T) {
	f := Cosine{}.Prepare(weightedDataset(t)).Pair
	// identical profiles → 1
	if got := f(0, 1); math.Abs(got-1) > 1e-12 {
		t.Errorf("cosine of identical profiles = %v, want 1", got)
	}
	// user 3 has only item 0 weight 1: dot = 3, norms 5 and 1 → 0.6
	if got := f(0, 3); math.Abs(got-0.6) > 1e-12 {
		t.Errorf("cosine(0,3) = %v, want 0.6", got)
	}
}

func TestJaccard(t *testing.T) {
	f := Jaccard{}.Prepare(testDataset(t)).Pair
	// users 0,1: |∩|=1, |∪|=3
	if got := f(0, 1); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("jaccard(0,1) = %v, want 1/3", got)
	}
	if got := f(0, 2); got != 0 {
		t.Errorf("jaccard disjoint = %v, want 0", got)
	}
	// 0 vs 3: ∩=2, ∪=3
	if got := f(0, 3); math.Abs(got-2.0/3) > 1e-12 {
		t.Errorf("jaccard(0,3) = %v, want 2/3", got)
	}
}

func TestAdamicAdar(t *testing.T) {
	d := testDataset(t)
	f := AdamicAdar{}.Prepare(d).Pair
	// item 1 is rated by users 0,1,3 → |IP|=3. share between 0 and 1 = item 1.
	want := 1 / math.Log(3)
	if got := f(0, 1); math.Abs(got-want) > 1e-12 {
		t.Errorf("adamic-adar(0,1) = %v, want %v", got, want)
	}
	// 0 vs 3 share items 0 (|IP|=2) and 1 (|IP|=3)
	want = 1/math.Log(2) + 1/math.Log(3)
	if got := f(0, 3); math.Abs(got-want) > 1e-12 {
		t.Errorf("adamic-adar(0,3) = %v, want %v", got, want)
	}
	if got := f(0, 2); got != 0 {
		t.Errorf("adamic-adar disjoint = %v, want 0", got)
	}
}

func TestOverlap(t *testing.T) {
	f := Overlap{}.Prepare(testDataset(t)).Pair
	if got := f(0, 3); got != 2 {
		t.Errorf("overlap(0,3) = %v, want 2", got)
	}
	if got := f(1, 2); got != 0 {
		t.Errorf("overlap disjoint = %v, want 0", got)
	}
}

func TestDice(t *testing.T) {
	f := Dice{}.Prepare(testDataset(t)).Pair
	// 0 vs 3: 2*2/(2+3)
	if got := f(0, 3); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("dice(0,3) = %v, want 0.8", got)
	}
	if got := f(0, 2); got != 0 {
		t.Errorf("dice disjoint = %v, want 0", got)
	}
}

func TestAllMetricsSymmetricAndPaperProperties(t *testing.T) {
	// Eq. (5): disjoint ⇒ 0 ; Eq. (6): overlapping ⇒ ≥ 0; plus symmetry.
	for _, name := range Names() {
		m, err := ByName(name)
		if err != nil {
			t.Fatalf("ByName(%s): %v", name, err)
		}
		for _, d := range []*dataset.Dataset{testDataset(t), weightedDataset(t)} {
			f := m.Prepare(d).Pair
			n := uint32(d.NumUsers())
			for u := uint32(0); u < n; u++ {
				for v := uint32(0); v < n; v++ {
					if u == v {
						continue
					}
					s, s2 := f(u, v), f(v, u)
					if s != s2 {
						t.Errorf("%s on %s: sim(%d,%d)=%v != sim(%d,%d)=%v", name, d.Name, u, v, s, v, u, s2)
					}
					if s < 0 {
						t.Errorf("%s on %s: sim(%d,%d)=%v < 0 violates Eq. (6)", name, d.Name, u, v, s)
					}
					// Eq. (5): zero overlap must give zero similarity.
					if overlapCount(d, u, v) == 0 && s != 0 {
						t.Errorf("%s on %s: disjoint sim(%d,%d)=%v violates Eq. (5)", name, d.Name, u, v, s)
					}
				}
			}
		}
	}
}

func overlapCount(d *dataset.Dataset, u, v uint32) int {
	n := 0
	for _, id := range d.Users[u].IDs {
		if d.Users[v].Contains(id) {
			n++
		}
	}
	return n
}

func TestByNameUnknown(t *testing.T) {
	if _, err := ByName("euclid"); err == nil {
		t.Error("ByName must reject unknown metrics")
	}
}

func TestByNameAliases(t *testing.T) {
	m1, err1 := ByName("adamic-adar")
	m2, err2 := ByName("adamicadar")
	if err1 != nil || err2 != nil || m1.Name() != m2.Name() {
		t.Error("adamic-adar aliases must resolve to the same metric")
	}
}

func TestCounted(t *testing.T) {
	var evals atomic.Int64
	f := Counted(Cosine{}.Prepare(testDataset(t)).Pair, &evals)
	f(0, 1)
	f(0, 2)
	f(1, 3)
	if got := evals.Load(); got != 3 {
		t.Errorf("counter = %d, want 3", got)
	}
}

func TestCosineEmptyProfileIsZero(t *testing.T) {
	d := dataset.FromProfiles("empty", []map[uint32]float64{
		{},
		{0: 1},
	}, true)
	f := Cosine{}.Prepare(d).Pair
	if got := f(0, 1); got != 0 {
		t.Errorf("cosine with empty profile = %v, want 0 (no NaN)", got)
	}
	if math.IsNaN(f(0, 0)) {
		t.Error("cosine must never be NaN")
	}
}

func TestMetricNamesMatchRegistry(t *testing.T) {
	for _, name := range Names() {
		m, err := ByName(name)
		if err != nil {
			t.Fatalf("registered name %q not resolvable: %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("metric %q reports name %q", name, m.Name())
		}
	}
}
