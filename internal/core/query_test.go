package core

import (
	"math"
	"slices"
	"testing"

	"kiff/internal/dataset"
	"kiff/internal/knngraph"
	"kiff/internal/similarity"
	"kiff/internal/sparse"
)

func TestQueryToyExample(t *testing.T) {
	d, _, _ := dataset.Toy()
	ix := NewIndex(d, nil)
	// A query that likes coffee and cheese is most similar to Bob (who has
	// exactly that profile), then Alice (shares coffee).
	got, err := ix.Query(sparse.Vector{IDs: []uint32{1, 2}}, 2, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 || got[0].ID != 1 || got[1].ID != 0 {
		t.Fatalf("Query = %v, want [Bob Alice]", got)
	}
	if math.Abs(got[0].Sim-1) > 1e-12 {
		t.Errorf("Bob similarity = %v, want 1", got[0].Sim)
	}
}

func TestQueryRejectsBadInputs(t *testing.T) {
	d, _, _ := dataset.Toy()
	ix := NewIndex(d, nil)
	if _, err := ix.Query(sparse.Vector{IDs: []uint32{0}}, 0, -1); err == nil {
		t.Error("k=0 must be rejected")
	}
	if _, err := ix.Query(sparse.Vector{IDs: []uint32{2, 1}}, 1, -1); err == nil {
		t.Error("unsorted profile must be rejected")
	}
}

func TestQueryIgnoresOutOfRangeItems(t *testing.T) {
	d, _, _ := dataset.Toy()
	ix := NewIndex(d, nil)
	got, err := ix.Query(sparse.Vector{IDs: []uint32{1, 999}}, 1, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 {
		t.Fatalf("Query = %v, want one coffee lover", got)
	}
}

func TestQueryDisjointProfileFindsNothing(t *testing.T) {
	d, _, _ := dataset.Toy()
	ix := NewIndex(d, nil)
	got, err := ix.Query(sparse.Vector{IDs: []uint32{999}}, 3, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 0 {
		t.Errorf("disjoint query returned %v", got)
	}
}

// TestQueryUnlimitedBudgetIsExact: querying with an existing user's own
// profile must reproduce that user's exact KNN under the metric's own
// pairwise function, the user itself included — bit for bit.
func TestQueryUnlimitedBudgetIsExact(t *testing.T) {
	d, err := dataset.Wikipedia.Generate(0.015, 51)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range similarity.Names() {
		metric, err := similarity.ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		ix := NewIndex(d, metric)
		sim := metric.Prepare(d).Pair
		for _, u := range []uint32{0, 7, 42} {
			got, err := ix.Query(d.Users[u], 5, -1)
			if err != nil {
				t.Fatal(err)
			}
			// Reference: every user with a positive similarity, ranked by
			// (sim desc, id asc).
			var all []knngraph.Neighbor
			for v := 0; v < d.NumUsers(); v++ {
				if s := sim(u, uint32(v)); s > 0 {
					all = append(all, knngraph.Neighbor{ID: uint32(v), Sim: s})
				}
			}
			knngraph.SortNeighbors(all)
			if len(all) > 5 {
				all = all[:5]
			}
			if !slices.Equal(got, all) {
				t.Fatalf("%s user %d: Query = %v, want %v", name, u, got, all)
			}
		}
	}
}

// TestQueryBudgetMonotone: larger budgets never return worse top-1
// results, and budget 0 returns nothing.
func TestQueryBudgetMonotone(t *testing.T) {
	d, err := dataset.Wikipedia.Generate(0.01, 52)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(d, nil)
	profile := d.Users[3]
	zero, err := ix.Query(profile, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(zero) != 0 {
		t.Errorf("budget 0 returned %v", zero)
	}
	prevBest := -1.0
	for _, budget := range []int{1, 4, 16, 64, -1} {
		got, err := ix.Query(profile, 5, budget)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) == 0 {
			continue
		}
		if got[0].Sim < prevBest-1e-12 {
			t.Fatalf("budget %d: top-1 sim %v worse than smaller budget's %v",
				budget, got[0].Sim, prevBest)
		}
		prevBest = got[0].Sim
	}
}

// TestQueryMatchesGraphNeighbors: for an indexed user's own profile, the
// query result (minus the user itself) must match the exhaustive KIFF
// graph's neighborhood.
func TestQueryMatchesGraphNeighbors(t *testing.T) {
	d, err := dataset.Wikipedia.Generate(0.01, 53)
	if err != nil {
		t.Fatal(err)
	}
	k := 4
	res, err := Build(d, Config{K: k, Gamma: -1, Beta: -1})
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(d, nil)
	for _, u := range []uint32{1, 5, 9} {
		got, err := ix.Query(d.Users[u], k+1, -1) // +1 absorbs u itself
		if err != nil {
			t.Fatal(err)
		}
		var filtered []knngraph.Neighbor
		for _, nb := range got {
			if nb.ID != u {
				filtered = append(filtered, nb)
			}
		}
		if len(filtered) > k {
			filtered = filtered[:k]
		}
		want := res.Graph.Neighbors(u)
		if len(want) > len(filtered) {
			t.Fatalf("user %d: query found %d neighbors, graph has %d", u, len(filtered), len(want))
		}
		for i := range want {
			if filtered[i].ID != want[i].ID {
				t.Fatalf("user %d: neighbor %d = %d, graph has %d",
					u, i, filtered[i].ID, want[i].ID)
			}
		}
	}
}
