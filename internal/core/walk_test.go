package core

import (
	"fmt"
	"slices"
	"testing"

	"kiff/internal/dataset"
	"kiff/internal/rcs"
	"kiff/internal/similarity"
	"kiff/internal/sparse"
)

// requireRowsMatchBatch checks every user's row against the batch
// counting phase and the pairwise reference: Row's candidates must be
// exactly row u of the unpivoted rcs.Build at minRating, each scored like
// metric.Prepare(d).Pair, and its co-raters exactly the users sharing any
// item with u, u included.
func requireRowsMatchBatch(t *testing.T, d *dataset.Dataset, minRating float64) {
	t.Helper()
	batch := rcs.Build(d, rcs.BuildOptions{NoPivot: true, MinRating: minRating})
	raw := rcs.Build(d, rcs.BuildOptions{NoPivot: true})
	for _, name := range similarity.Names() {
		metric, err := similarity.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		pair := metric.Prepare(d).Pair
		var w Walker
		for u := uint32(0); int(u) < d.NumUsers(); u++ {
			cands, sims, coRaters := w.Row(d, metric, u, minRating)
			if got, want := slices.Sorted(slices.Values(cands)), slices.Sorted(slices.Values(batch.List(u))); !slices.Equal(got, want) {
				t.Fatalf("%s: user %d: candidates %v, batch build %v", name, u, got, want)
			}
			for i, v := range cands {
				if want := pair(u, v); sims[i] != want {
					t.Fatalf("%s: user %d: sim to %d = %v, pairwise %v", name, u, v, sims[i], want)
				}
			}
			want := append(slices.Clone(raw.List(u)), u)
			if d.User(u).Len() == 0 {
				want = want[:len(want)-1]
			}
			slices.Sort(want)
			if got := slices.Sorted(slices.Values(coRaters)); !slices.Equal(got, want) {
				t.Fatalf("%s: user %d: co-raters %v, want %v", name, u, got, want)
			}
		}
	}
}

// TestRowCandidatesMatchBatchBuild pins a user row to KIFF's batch
// counting phase, with and without the §VII MinRating filter, on a
// binary and a weighted fixture — and again after profile changes and
// appended users, which the walk reads live (Adamic–Adar's |IPi|
// included) with nothing to refresh.
func TestRowCandidatesMatchBatchBuild(t *testing.T) {
	fixtures := []struct {
		preset     dataset.Preset
		scale      float64
		minRatings []float64
	}{
		{dataset.Wikipedia, 0.01, []float64{0}},
		{dataset.Gowalla, 0.003, []float64{0, 3}},
	}
	for _, fx := range fixtures {
		for _, minRating := range fx.minRatings {
			t.Run(fmt.Sprintf("%s/min=%g", fx.preset, minRating), func(t *testing.T) {
				d, err := fx.preset.Generate(fx.scale, 43)
				if err != nil {
					t.Fatal(err)
				}
				requireRowsMatchBatch(t, d, minRating)

				rating := func(r float64) float64 {
					if d.Binary() {
						return 1
					}
					return r
				}
				items := uint32(d.NumItems())
				for u := uint32(0); u < 6; u++ {
					if held := d.User(u).IDs; len(held) > 0 {
						if err := d.AddRating(u, held[0], rating(1)); err != nil {
							t.Fatal(err)
						}
					}
					if err := d.AddRating(u, d.User(u + 7).IDs[0], rating(4)); err != nil {
						t.Fatal(err)
					}
				}
				if err := d.AddRating(2, items+1, rating(5)); err != nil {
					t.Fatal(err)
				}
				p := sparse.Vector{IDs: []uint32{d.User(3).IDs[0], items, items + 1}}
				if !d.Binary() {
					p.Weights = []float64{5, 4, 3}
				}
				if _, err := d.AddUser(p); err != nil {
					t.Fatal(err)
				}
				requireRowsMatchBatch(t, d, minRating)
			})
		}
	}
}

// TestRowEpochWrap: a row walked as the epoch wraps must hard-reset the
// counts and the MinRating marks, so that no stamp of the row before
// aliases the restarted epoch, and must answer like a fresh walker.
func TestRowEpochWrap(t *testing.T) {
	d, err := dataset.Gowalla.Generate(0.003, 44)
	if err != nil {
		t.Fatal(err)
	}
	metric := similarity.Cosine{}
	var w Walker
	for u := uint32(1); int(u) < d.NumUsers(); u++ {
		w.Row(d, metric, u-1, 3)
		w.forceWrap()
		cands, sims, _ := w.Row(d, metric, u, 3)
		if w.epoch != 1 {
			t.Fatalf("epoch after wrap = %d, want 1", w.epoch)
		}
		var fresh Walker
		wantCands, wantSims, _ := fresh.Row(d, metric, u, 3)
		if !slices.Equal(cands, wantCands) || !slices.Equal(sims, wantSims) {
			t.Fatalf("user %d after wrap: %v %v, fresh walker: %v %v", u, cands, sims, wantCands, wantSims)
		}
	}
}
