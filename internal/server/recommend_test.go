package server

import (
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"kiff"
	"kiff/internal/shard"
)

// referenceRecommend is the item-recommendation rule as a straight-line
// oracle: accumulate every neighbor's similarity-weighted ratings in a
// map (neighbor order, then profile order), skip the query's own items,
// sort every scored item and truncate to k.
func referenceRecommend(src *shard.View, profile kiff.Profile, nbs []kiff.Neighbor, k int) []scoredItem {
	have := map[uint32]bool{}
	for _, it := range profile.IDs {
		have[it] = true
	}
	scores := map[uint32]float64{}
	for _, nb := range nbs {
		if nb.Sim <= 0 {
			continue
		}
		p, ok := src.Profile(nb.ID)
		if !ok {
			continue
		}
		for i, it := range p.IDs {
			if !have[it] {
				scores[it] += nb.Sim * p.Weight(i)
			}
		}
	}
	out := make([]scoredItem, 0, len(scores))
	for it, sc := range scores {
		out = append(out, scoredItem{ID: it, Score: sc})
	}
	slices.SortFunc(out, func(a, b scoredItem) int {
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		case a.ID < b.ID:
			return -1
		case a.ID > b.ID:
			return 1
		}
		return 0
	})
	if len(out) > k {
		out = out[:k]
	}
	return out
}

func recommendFixture(t testing.TB, preset string, scale float64) (*shard.View, *kiff.Dataset) {
	t.Helper()
	d, err := kiff.GeneratePreset(preset, scale, 9)
	if err != nil {
		t.Fatal(err)
	}
	p, err := kiff.NewShardedMaintainer(d, 1, kiff.Options{K: 20})
	if err != nil {
		t.Fatal(err)
	}
	return p.View(), d
}

// TestRecommendItemsMatchesReference pins recommendItems bit for bit to
// the map-and-sort oracle on a binary and a weighted fixture, for indexed
// and random query profiles (some holding item IDs far past the item
// space) and every k from 1 to far beyond the scored items.
func TestRecommendItemsMatchesReference(t *testing.T) {
	r := rand.New(rand.NewSource(5))
	for _, fx := range []struct {
		preset string
		scale  float64
	}{{"wikipedia", 0.05}, {"gowalla", 0.003}} {
		src, d := recommendFixture(t, fx.preset, fx.scale)
		var profiles []kiff.Profile
		for _, u := range []int{0, 4, d.NumUsers() / 2} {
			profiles = append(profiles, d.Users[u])
		}
		for i := 0; i < 6; i++ {
			m := map[uint32]float64{}
			for j := 0; j < 1+r.Intn(30); j++ {
				m[uint32(r.Intn(d.NumItems()))] = float64(1 + r.Intn(5))
			}
			if i%2 == 0 {
				m[1<<31] = 1
			}
			profiles = append(profiles, kiff.ProfileFromMap(m, i%3 == 0))
		}
		for pi, p := range profiles {
			nbs, err := src.Query(p, src.K(), -1)
			if err != nil {
				t.Fatal(err)
			}
			for _, k := range []int{1, 5, 50, 1 << 30} {
				got := recommendItems(src, p, nbs, k)
				want := referenceRecommend(src, p, nbs, k)
				if !slices.Equal(got, want) {
					t.Fatalf("%s profile %d k %d:\n got %v\nwant %v", fx.preset, pi, k, got, want)
				}
			}
		}
	}
}

// TestRecommendItemsHostileRequestBoundedMemory: a query item ID near
// 1<<31 and k = 1<<30 must not size the accumulator or the answer.
func TestRecommendItemsHostileRequestBoundedMemory(t *testing.T) {
	src, d := recommendFixture(t, "wikipedia", 0.05)
	p := kiff.Profile{IDs: append(slices.Clone(d.Users[3].IDs), 1<<31)}
	nbs, err := src.Query(p, src.K(), -1)
	if err != nil {
		t.Fatal(err)
	}
	recommendItems(src, p, nbs, 1<<30) // warm the pool
	const runs = 50
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		recommendItems(src, p, nbs, 1<<30)
	}
	runtime.ReadMemStats(&after)
	if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > 64<<10 {
		t.Errorf("%d bytes per recommendation, want O(scored items)", perOp)
	}
}

// BenchmarkRecommendItems measures the item-recommendation step alone:
// the 20 exact neighbors of an indexed profile on the full-scale
// wikipedia fixture, aggregated into the top 10 items.
func BenchmarkRecommendItems(b *testing.B) {
	src, d := recommendFixture(b, "wikipedia", 1)
	p := d.Users[1]
	nbs, err := src.Query(p, src.K(), -1)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		recommendItems(src, p, nbs, 10)
	}
}
