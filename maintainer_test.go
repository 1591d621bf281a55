package kiff

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"kiff/internal/similarity"
)

// TestMaintainerInsertStreamConvergesToColdBuild is the headline property
// of incremental maintenance: streaming the last 10% of a dataset's users
// through Maintainer.Insert — in random order — must converge to the same
// recall as a cold Build over the final dataset (within 5%), while
// spending measurably fewer similarity evaluations than that cold build.
func TestMaintainerInsertStreamConvergesToColdBuild(t *testing.T) {
	full, err := GeneratePreset("wikipedia", 0.02, 31)
	if err != nil {
		t.Fatal(err)
	}
	n := full.NumUsers()
	streamLen := n / 10
	k := 10

	for _, shuffleSeed := range []int64{1, 2, 3} {
		rng := rand.New(rand.NewSource(shuffleSeed))
		perm := rng.Perm(n)
		profiles := make([]Profile, 0, n)
		for _, u := range perm {
			profiles = append(profiles, full.Users[u])
		}
		base, err := NewDataset("stream-base", profiles[:n-streamLen], full.NumItems())
		if err != nil {
			t.Fatal(err)
		}

		m, err := NewMaintainer(base, Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range profiles[n-streamLen:] {
			if _, err := m.Insert(p); err != nil {
				t.Fatal(err)
			}
		}
		maintained := m.Graph()
		if err := maintained.Validate(); err != nil {
			t.Fatalf("seed %d: maintained graph invalid: %v", shuffleSeed, err)
		}
		if maintained.NumUsers() != n {
			t.Fatalf("seed %d: maintained graph has %d users, want %d", shuffleSeed, maintained.NumUsers(), n)
		}

		cold, err := Build(m.Dataset(), Options{K: k})
		if err != nil {
			t.Fatal(err)
		}

		// Sampled recall (bruteforce.Sampled under the hood), same seed for
		// both graphs so the sample is identical.
		scoreOpts := Options{K: k, Seed: 99}
		coldRecall, err := Recall(m.Dataset(), cold.Graph, scoreOpts, 300)
		if err != nil {
			t.Fatal(err)
		}
		maintRecall, err := Recall(m.Dataset(), maintained, scoreOpts, 300)
		if err != nil {
			t.Fatal(err)
		}
		if maintRecall < 0.95*coldRecall {
			t.Errorf("seed %d: maintained recall %.4f < 0.95 × cold recall %.4f",
				shuffleSeed, maintRecall, coldRecall)
		}

		// The whole point of maintenance: far fewer similarity evaluations
		// than reconstructing from scratch.
		maintEvals := m.Stats().SimEvals
		if maintEvals == 0 {
			t.Fatalf("seed %d: maintenance evals not counted", shuffleSeed)
		}
		if maintEvals >= cold.Run.SimEvals*8/10 {
			t.Errorf("seed %d: maintenance cost not measurably lower: %d evals vs cold %d",
				shuffleSeed, maintEvals, cold.Run.SimEvals)
		}
		t.Logf("seed %d: recall %.4f (cold %.4f), evals %d (cold %d, ratio %.2f)",
			shuffleSeed, maintRecall, coldRecall, maintEvals, cold.Run.SimEvals,
			float64(maintEvals)/float64(cold.Run.SimEvals))
	}
}

// TestMaintainerColdBuildMatchesExactBuild pins the walk's cold build to
// KIFF at γ = ∞: NewMaintainer's graph must equal Build's with Gamma < 0,
// KFG1 byte for byte, for every metric, on a binary (wikipedia) and a
// weighted (gowalla) fixture, and under the §VII MinRating filter.
func TestMaintainerColdBuildMatchesExactBuild(t *testing.T) {
	fixtures := []struct {
		preset     string
		scale      float64
		minRatings []float64
	}{
		{"wikipedia", 0.02, []float64{0}},
		{"gowalla", 0.003, []float64{0, 3}},
	}
	for _, fx := range fixtures {
		d, err := GeneratePreset(fx.preset, fx.scale, 41)
		if err != nil {
			t.Fatal(err)
		}
		for _, metric := range similarity.Names() {
			for _, minRating := range fx.minRatings {
				t.Run(fmt.Sprintf("%s/%s/min=%g", fx.preset, metric, minRating), func(t *testing.T) {
					opts := Options{K: 10, Metric: metric, MinRating: minRating, Workers: 3}
					m, err := NewMaintainer(d, opts)
					if err != nil {
						t.Fatal(err)
					}
					opts.Gamma = -1
					exact, err := Build(d, opts)
					if err != nil {
						t.Fatal(err)
					}
					if !bytes.Equal(graphBytes(t, m.Graph()), graphBytes(t, exact.Graph)) {
						t.Fatal("cold-built graph differs from Build with Gamma < 0")
					}
					if got := m.Stats().SimEvals; got != 0 {
						t.Errorf("cold build counted %d maintenance evaluations", got)
					}
				})
			}
		}
	}
}

// TestMaintainerRebuildRefreshesDirtyUsers covers the rating-update path:
// after AddRating mutations, Rebuild must re-rank the dirty user exactly
// (its candidate set provably covers every positive-similarity user) and
// leave no stale similarity anywhere in the graph.
func TestMaintainerRebuildRefreshesDirtyUsers(t *testing.T) {
	d, err := GeneratePreset("gowalla", 0.002, 32) // weighted ratings
	if err != nil {
		t.Fatal(err)
	}
	k := 5
	// The rebuild walks every candidate of the user (Beta, which Build
	// reads, is ignored), so the rebuilt user's neighborhood is exactly
	// the positive prefix of its true top-k.
	m, err := NewMaintainer(d, Options{K: k, Beta: -1})
	if err != nil {
		t.Fatal(err)
	}

	target := uint32(3)
	// Shift several of the target's ratings and give it two new items.
	prof := m.Dataset().Users[target]
	for i := 0; i < prof.Len() && i < 3; i++ {
		if err := m.AddRating(target, prof.IDs[i], prof.Weight(i)+2); err != nil {
			t.Fatal(err)
		}
	}
	novel := uint32(m.Dataset().NumItems())
	if err := m.AddRating(target, novel, 5); err != nil {
		t.Fatal(err)
	}
	if err := m.AddRating(target, novel+1, 4); err != nil {
		t.Fatal(err)
	}

	dirty := m.Dirty()
	if len(dirty) != 1 || dirty[0] != target {
		t.Fatalf("Dirty() = %v, want [%d]", dirty, target)
	}
	if err := m.Rebuild(nil); err != nil {
		t.Fatal(err)
	}
	if len(m.Dirty()) != 0 {
		t.Fatalf("Dirty() = %v after Rebuild, want empty", m.Dirty())
	}

	g := m.Graph()
	if err := g.Validate(); err != nil {
		t.Fatalf("rebuilt graph invalid: %v", err)
	}

	// No stale similarities may survive anywhere: every edge must carry the
	// post-mutation similarity of its endpoints.
	sim := similarity.Cosine{}.Prepare(m.Dataset()).Pair
	for u := 0; u < g.NumUsers(); u++ {
		for _, nb := range g.Neighbors(uint32(u)) {
			if want := sim(uint32(u), nb.ID); math.Abs(nb.Sim-want) > 1e-12 {
				t.Fatalf("stale edge %d→%d: recorded sim %v, true sim %v", u, nb.ID, nb.Sim, want)
			}
		}
	}

	// The rebuilt user's neighborhood must match the exact graph's positive
	// prefix similarity-for-similarity.
	exact, err := Build(m.Dataset(), Options{K: k, Gamma: -1})
	if err != nil {
		t.Fatal(err)
	}
	want := exact.Graph.Neighbors(target)
	got := g.Neighbors(target)
	if len(got) != len(want) {
		t.Fatalf("rebuilt user has %d neighbors, exact has %d", len(got), len(want))
	}
	for i := range want {
		if math.Abs(got[i].Sim-want[i].Sim) > 1e-12 {
			t.Fatalf("rebuilt user neighbor %d: sim %v, exact %v", i, got[i].Sim, want[i].Sim)
		}
	}

	// And the overall graph quality must stay high.
	recall, err := Recall(m.Dataset(), g, Options{K: k}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if recall < 0.9 {
		t.Errorf("post-rebuild recall = %.4f, want ≥ 0.9", recall)
	}
}

func TestMaintainerInsertEdgeCases(t *testing.T) {
	d, _, _ := Toy()
	m, err := NewMaintainer(d, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}

	// An empty profile overlaps nobody: it joins the population with no
	// neighbors and costs zero similarity evaluations.
	before := m.Stats().SimEvals
	id, err := m.Insert(Profile{})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Stats().SimEvals; got != before {
		t.Errorf("empty insert cost %d evals", got-before)
	}
	if nbs := m.Graph().Neighbors(id); len(nbs) != 0 {
		t.Errorf("empty profile has neighbors %v", nbs)
	}

	// A profile referencing brand-new items grows the item space.
	items := uint32(m.Dataset().NumItems())
	id2, err := m.Insert(ProfileFromMap(map[uint32]float64{items: 1, items + 3: 1}, true))
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Dataset().NumItems(); got != int(items)+4 {
		t.Errorf("NumItems = %d after novel-item insert, want %d", got, items+4)
	}

	// A clone of Alice (user 0) must become her top neighbor with sim 1.
	clone := m.Dataset().Users[0].Clone()
	id3, err := m.Insert(clone)
	if err != nil {
		t.Fatal(err)
	}
	nbs := m.Graph().Neighbors(id3)
	if len(nbs) == 0 || nbs[0].ID != 0 || math.Abs(nbs[0].Sim-1) > 1e-12 {
		t.Errorf("clone's neighbors = %v, want user 0 at sim 1", nbs)
	}
	alice := m.Graph().Neighbors(0)
	if len(alice) == 0 || alice[0].ID != id3 {
		t.Errorf("Alice's neighbors = %v, want the clone %d first", alice, id3)
	}

	if err := m.Graph().Validate(); err != nil {
		t.Fatal(err)
	}
	if got := m.Graph().NumUsers(); got != 4+3 {
		t.Errorf("NumUsers = %d, want 7", got)
	}
	_ = id2

	// The maintainer is KIFF-specific.
	if _, err := NewMaintainer(d, Options{K: 2, Algorithm: NNDescent}); err == nil {
		t.Error("NewMaintainer must reject non-KIFF algorithms")
	}
	if _, err := NewMaintainer(d, Options{K: 0}); err == nil {
		t.Error("NewMaintainer must validate options")
	}
}

// TestMaintainerNonIncrementalMetric pins Adamic–Adar maintenance to
// exact builds. Its per-item weights 1/ln|IPi| shift whenever a user
// gains an item, and the Maintainer's walk reads each weight from the
// live item row instead of a prepared table. Every user a step inserts
// or rebuilds must then hold the exact build's neighborhood, similarity
// for similarity, across a seeded Insert/InsertBatch/AddRating/Rebuild
// stream.
func TestMaintainerNonIncrementalMetric(t *testing.T) {
	d, err := GeneratePreset("wikipedia", 0.01, 33)
	if err != nil {
		t.Fatal(err)
	}
	m, err := NewMaintainer(d, Options{K: 5, Metric: "adamic-adar", Beta: -1})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(37))
	randUser := func() uint32 { return uint32(rng.Intn(m.Dataset().NumUsers())) }
	check := func(step string, users []uint32) {
		t.Helper()
		g := m.Graph()
		if err := g.Validate(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		exact, err := Build(m.Dataset(), Options{K: 5, Metric: "adamic-adar", Gamma: -1})
		if err != nil {
			t.Fatal(err)
		}
		for _, u := range users {
			want, got := exact.Graph.Neighbors(u), g.Neighbors(u)
			if len(got) != len(want) {
				t.Fatalf("%s: user %d has %d neighbors, exact has %d", step, u, len(got), len(want))
			}
			for i := range want {
				if got[i].Sim != want[i].Sim {
					t.Fatalf("%s: user %d neighbor %d: sim %v, exact %v", step, u, i, got[i].Sim, want[i].Sim)
				}
			}
		}
	}
	for round := 0; round < 3; round++ {
		id, err := m.Insert(m.Dataset().Users[randUser()].Clone())
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("round %d: insert", round), []uint32{id})

		// The batch's profiles share no item, so a later member's arrival
		// cannot shift the weights behind an earlier member's list (that
		// drift is the documented Adamic–Adar inexactness, not exercised
		// here).
		var batch []Profile
		taken := map[uint32]bool{}
		for len(batch) < 3 {
			p := m.Dataset().Users[randUser()]
			if p.Len() == 0 || slices.ContainsFunc(p.IDs, func(i uint32) bool { return taken[i] }) {
				continue
			}
			for _, i := range p.IDs {
				taken[i] = true
			}
			batch = append(batch, p.Clone())
		}
		ids, err := m.InsertBatch(batch)
		if err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("round %d: insert batch", round), ids)

		// A re-rating of a held item, a rating of an item the user lacks
		// (its degree grows), and one past the item space (the weight
		// table grows).
		u, w := randUser(), randUser()
		held := m.Dataset().Users[u].IDs
		if len(held) > 0 {
			if err := m.AddRating(u, held[0], 3); err != nil {
				t.Fatal(err)
			}
		}
		if err := m.AddRating(u, uint32(rng.Intn(m.Dataset().NumItems())), 1); err != nil {
			t.Fatal(err)
		}
		if err := m.AddRating(w, uint32(m.Dataset().NumItems()+rng.Intn(3)), 2); err != nil {
			t.Fatal(err)
		}
		dirty := m.Dirty()
		if err := m.Rebuild(nil); err != nil {
			t.Fatal(err)
		}
		check(fmt.Sprintf("round %d: rebuild", round), dirty)
	}
}
