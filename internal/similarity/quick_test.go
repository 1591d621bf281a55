package similarity

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"kiff/internal/dataset"
	"kiff/internal/sparse"
)

func randQuickDataset(r *rand.Rand) *dataset.Dataset {
	users := 2 + r.Intn(20)
	items := 1 + r.Intn(15)
	profiles := make([]map[uint32]float64, users)
	for u := range profiles {
		m := map[uint32]float64{}
		n := r.Intn(items + 1)
		for i := 0; i < n; i++ {
			m[uint32(r.Intn(items))] = float64(1 + r.Intn(5))
		}
		profiles[u] = m
	}
	return dataset.FromProfiles("quick", profiles, r.Intn(2) == 0)
}

// TestQuickPaperProperties checks Eq. (5) and (6) plus symmetry for every
// registered metric over randomized datasets — the precondition for
// KIFF's pruning to be lossless.
func TestQuickPaperProperties(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	cfg := &quick.Config{
		MaxCount: 80,
		Rand:     r,
		Values: func(vs []reflect.Value, _ *rand.Rand) {
			for i := range vs {
				vs[i] = reflect.ValueOf(randQuickDataset(r))
			}
		},
	}
	f := func(d *dataset.Dataset) bool {
		for _, name := range Names() {
			m, err := ByName(name)
			if err != nil {
				return false
			}
			sim := m.Prepare(d).Pair
			n := d.NumUsers()
			for u := 0; u < n; u++ {
				for v := u + 1; v < n; v++ {
					s := sim(uint32(u), uint32(v))
					if math.IsNaN(s) || s < 0 {
						return false
					}
					if s != sim(uint32(v), uint32(u)) {
						return false
					}
					if sparse.CommonCount(d.Users[u], d.Users[v]) == 0 && s != 0 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickCosineBounded: cosine stays within [0, 1] on non-negative
// ratings (the regime the paper's Eq. 5/6 argument assumes).
func TestQuickCosineBounded(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	cfg := &quick.Config{
		MaxCount: 100,
		Rand:     r,
		Values: func(vs []reflect.Value, _ *rand.Rand) {
			for i := range vs {
				vs[i] = reflect.ValueOf(randQuickDataset(r))
			}
		},
	}
	f := func(d *dataset.Dataset) bool {
		sim := Cosine{}.Prepare(d).Pair
		n := d.NumUsers()
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				s := sim(uint32(u), uint32(v))
				if s < 0 || s > 1+1e-12 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestQuickOverlapDominates: the common-item count upper-bounds the
// weighted overlap structure: any metric is zero exactly when overlap is
// zero — the monotone-at-zero relationship the counting phase exploits.
func TestQuickOverlapZeroIffMetricsZero(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	cfg := &quick.Config{
		MaxCount: 80,
		Rand:     r,
		Values: func(vs []reflect.Value, _ *rand.Rand) {
			for i := range vs {
				vs[i] = reflect.ValueOf(randQuickDataset(r))
			}
		},
	}
	f := func(d *dataset.Dataset) bool {
		jac := Jaccard{}.Prepare(d).Pair
		dice := Dice{}.Prepare(d).Pair
		n := d.NumUsers()
		for u := 0; u < n; u++ {
			for v := u + 1; v < n; v++ {
				overlap := sparse.CommonCount(d.Users[u], d.Users[v])
				if (overlap > 0) != (jac(uint32(u), uint32(v)) > 0) {
					return false
				}
				if (overlap > 0) != (dice(uint32(u), uint32(v)) > 0) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
