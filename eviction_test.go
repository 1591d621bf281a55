package kiff

// Tests for Rebuild's eviction of stale neighbor references: it follows
// the rebuilt users' item-profile rows instead of scanning every heap,
// and must leave exactly the graph the full scan left.

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"kiff/internal/dataset"
	"kiff/internal/rcs"
	"kiff/internal/shard"
	"kiff/internal/similarity"
)

// fullScanRebuild is the reference eviction: Maintainer.Rebuild as it was
// when eviction scanned all |U|·k heap entries for references to a
// rebuilt user. The test streams attach no write-ahead log, so it skips
// the logging step.
func fullScanRebuild(m *Maintainer, dirty []uint32) error {
	if dirty == nil {
		dirty = m.Dirty()
	}
	n := m.d.NumUsers()
	targets := make(map[uint32]struct{}, len(dirty))
	for _, u := range dirty {
		if int(u) >= n {
			return fmt.Errorf("kiff: Rebuild: user %d out of range (have %d users)", u, n)
		}
		targets[u] = struct{}{}
	}
	if len(targets) == 0 {
		return nil
	}
	order := make([]uint32, 0, len(targets))
	for u := range targets {
		order = append(order, u)
	}
	slices.Sort(order)
	for _, u := range order {
		m.sets.PatchUser(m.d, u, m.rcsOpts())
		m.heaps.Clear(u)
	}
	var ids []uint32
	for v := 0; v < n; v++ {
		if _, rebuilt := targets[uint32(v)]; rebuilt {
			continue
		}
		ids = m.heaps.IDs(ids[:0], uint32(v))
		for _, id := range ids {
			if _, rebuilt := targets[id]; rebuilt {
				m.heaps.Remove(uint32(v), id)
			}
		}
	}
	for _, u := range order {
		m.refineUser(u)
		delete(m.dirty, u)
	}
	m.rebuilds++
	m.rebuiltUsers += int64(len(targets))
	m.publish()
	return nil
}

// fullScanShard is a pool shard (or a standalone maintainer) whose
// Rebuild is the full-scan reference.
type fullScanShard struct{ maintainerShard }

func (s fullScanShard) Rebuild(dirty []uint32) error { return fullScanRebuild(s.Maintainer, dirty) }

// mutator is the write surface shared by Maintainer and shard.Pool.
type mutator interface {
	Insert(p Profile) (uint32, error)
	AddRating(u uint32, item uint32, rating float64) error
	Rebuild(dirty []uint32) error
}

// evictStream draws a seeded Insert / AddRating / Rebuild stream and
// applies each operation to every mutator under test in turn. Ratings
// mostly land on items other users hold, so rebuilt users have holders
// to evict; on weighted data half of them re-rate an item the user
// already holds, and with belowRating > 0 half of those re-rate it below
// that value.
type evictStream struct {
	rng         *rand.Rand
	binary      bool
	belowRating float64
	// lists gives half the rebuilds an explicit dirty list — a random
	// subset of the users rated since their last rebuild, with
	// duplicates and an extra user — instead of nil.
	lists   bool
	pending []uint32
}

// rating draws a rating value of the fixture's kind (1–8 when weighted).
func (s *evictStream) rating() float64 {
	if s.binary {
		return 1
	}
	return float64(1 + s.rng.Intn(8))
}

// step draws one operation against the current population (profile reads
// a user's live profile, n users over items items) and applies it to
// every mutator. It reports whether the operation was a Rebuild.
func (s *evictStream) step(t *testing.T, profile func(uint32) Profile, n, items int, ms ...mutator) bool {
	t.Helper()
	r := s.rng.Float64()
	switch {
	case r < 0.15:
		base := profile(uint32(s.rng.Intn(n)))
		p := map[uint32]float64{uint32(s.rng.Intn(items + 2)): s.rating()}
		for i := range base.IDs {
			if len(p) < 8 && s.rng.Intn(2) == 0 {
				p[base.IDs[i]] = s.rating()
			}
		}
		prof := ProfileFromMap(p, s.binary)
		var want uint32
		for i, m := range ms {
			id, err := m.Insert(prof)
			if err != nil {
				t.Fatal(err)
			}
			if i == 0 {
				want = id
			} else if id != want {
				t.Fatalf("Insert assigned id %d, reference %d", id, want)
			}
		}
		return false
	case r < 0.7:
		u := uint32(s.rng.Intn(n))
		own := profile(u)
		var item uint32
		var rating float64
		if !s.binary && own.Len() > 0 && s.rng.Intn(2) == 0 {
			item = own.IDs[s.rng.Intn(own.Len())]
			rating = s.rating()
			if s.belowRating > 0 && s.rng.Intn(2) == 0 {
				rating = s.belowRating / 2
			}
		} else {
			item = uint32(s.rng.Intn(items))
			if q := profile(uint32(s.rng.Intn(n))); q.Len() > 0 {
				item = q.IDs[s.rng.Intn(q.Len())]
			}
			rating = s.rating()
		}
		for _, m := range ms {
			if err := m.AddRating(u, item, rating); err != nil {
				t.Fatal(err)
			}
		}
		s.pending = append(s.pending, u)
		return false
	default:
		var dirty []uint32
		if s.lists && s.rng.Intn(2) == 0 {
			dirty = []uint32{}
			rest := s.pending[:0]
			for _, u := range s.pending {
				if s.rng.Intn(3) == 0 {
					rest = append(rest, u)
					continue
				}
				dirty = append(dirty, u)
				if s.rng.Intn(4) == 0 {
					dirty = append(dirty, u)
				}
			}
			s.pending = rest
			dirty = append(dirty, uint32(s.rng.Intn(n)))
			s.rng.Shuffle(len(dirty), func(i, j int) { dirty[i], dirty[j] = dirty[j], dirty[i] })
		} else {
			s.pending = s.pending[:0]
		}
		for _, m := range ms {
			if err := m.Rebuild(dirty); err != nil {
				t.Fatal(err)
			}
		}
		return true
	}
}

// TestRebuildEvictionMatchesFullScan pins the item-index eviction to the
// full heap scan it replaced: after every Rebuild of a seeded stream, the
// published graph must be byte-identical (KFG1) to the reference's, for
// every metric on a binary (wikipedia) and a weighted (gowalla) fixture,
// over a cold-built maintainer and one seeded from a KIFF graph, with
// Rebuild(nil) and explicit dirty lists mixed. On the weighted fixture the
// stream also runs under MinRating, re-rating held items below the
// threshold (binary datasets disable the filter).
func TestRebuildEvictionMatchesFullScan(t *testing.T) {
	steps := 100
	if testing.Short() {
		steps = 50
	}
	fixtures := []struct {
		preset     string
		scale      float64
		minRatings []float64
	}{
		{"wikipedia", 0.1, []float64{0}},
		{"gowalla", 0.01, []float64{0, 3}},
	}
	seed := int64(0)
	for _, fx := range fixtures {
		base, err := GeneratePreset(fx.preset, fx.scale, 17)
		if err != nil {
			t.Fatal(err)
		}
		for _, metric := range similarity.Names() {
			for _, minRating := range fx.minRatings {
				for _, seeded := range []bool{false, true} {
					seed++
					name := fmt.Sprintf("%s/%s/min=%g/seeded=%v", fx.preset, metric, minRating, seeded)
					t.Run(name, func(t *testing.T) {
						opts := Options{K: 5, Metric: metric, MinRating: minRating}
						m, ref := evictPair(t, base, opts, seeded)
						d := m.Dataset()
						s := &evictStream{
							rng:         rand.New(rand.NewSource(seed)),
							binary:      d.Binary(),
							belowRating: minRating,
							lists:       true,
						}
						for step := 0; step < steps; step++ {
							if s.step(t, d.User, d.NumUsers(), d.NumItems(), m, fullScanShard{maintainerShard{ref}}) {
								requireMatchesReference(t, step, m, ref)
							}
						}
					})
				}
			}
		}
	}

	// Start each rebuild with the visit-stamp epoch at the edge of its
	// range: without the reset, the target's epoch would wrap to the zero
	// unvisited users hold and the walk would skip them.
	t.Run("wikipedia/cosine/epoch-wrap", func(t *testing.T) {
		base, err := GeneratePreset("wikipedia", 0.1, 17)
		if err != nil {
			t.Fatal(err)
		}
		m, ref := evictPair(t, base, Options{K: 5}, false)
		d := m.Dataset()
		rng := rand.New(rand.NewSource(99))
		for round := 0; round < 10; round++ {
			u := uint32(rng.Intn(d.NumUsers()))
			item := uint32(rng.Intn(d.NumItems()))
			for d.User(u).Contains(item) {
				item = uint32(rng.Intn(d.NumItems()))
			}
			m.epoch = math.MaxUint32 - 1
			for _, mu := range []mutator{m, fullScanShard{maintainerShard{ref}}} {
				if err := mu.AddRating(u, item, 1); err != nil {
					t.Fatal(err)
				}
				if err := mu.Rebuild(nil); err != nil {
					t.Fatal(err)
				}
			}
			requireMatchesReference(t, round, m, ref)
		}
	})
}

// evictPair returns two maintainers over separate copies of base:
// cold-built, or seeded from one KIFF graph through NewMaintainerFromGraph.
func evictPair(t *testing.T, base *Dataset, opts Options, seeded bool) (*Maintainer, *Maintainer) {
	t.Helper()
	var g *Graph
	pair := make([]*Maintainer, 2)
	for i := range pair {
		d, err := dataset.New(base.Name, slices.Clone(base.Users), base.NumItems())
		if err != nil {
			t.Fatal(err)
		}
		if !seeded {
			if pair[i], err = NewMaintainer(d, opts); err != nil {
				t.Fatal(err)
			}
			continue
		}
		if g == nil {
			res, err := Build(d, opts)
			if err != nil {
				t.Fatal(err)
			}
			g = res.Graph
		}
		if pair[i], err = NewMaintainerFromGraph(d, g, opts); err != nil {
			t.Fatal(err)
		}
	}
	return pair[0], pair[1]
}

// requireMatchesReference fails unless both maintainers published
// byte-identical graphs and agree on the users still awaiting a rebuild.
func requireMatchesReference(t *testing.T, step int, m, ref *Maintainer) {
	t.Helper()
	if got, want := graphBytes(t, m.Snapshot().Graph()), graphBytes(t, ref.Snapshot().Graph()); !bytes.Equal(got, want) {
		t.Fatalf("step %d: published graph diverges from the full-scan reference", step)
	}
	if got, want := m.Dirty(), ref.Dirty(); !slices.Equal(got, want) {
		t.Fatalf("step %d: dirty users %v, reference %v", step, got, want)
	}
}

// TestRebuildEvictionMatchesFullScanPool runs the equivalence through a
// 4-shard pool: per-shard rebuilds fed by pool-level explicit dirty lists
// of global IDs and by Rebuild(nil).
func TestRebuildEvictionMatchesFullScanPool(t *testing.T) {
	const shards = 4
	d, err := GeneratePreset("gowalla", 0.01, 17)
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{K: 5, MinRating: 3}
	parts := make([][]Profile, shards)
	for g, p := range d.Users {
		s := shard.Owner(uint32(g), shards)
		parts[s] = append(parts[s], p)
	}
	ms := make([]*Maintainer, shards)
	refs := make([]*Maintainer, shards)
	newPool := func(wrap func(*Maintainer) shard.Maintainer, out []*Maintainer) *shard.Pool {
		pm := make([]shard.Maintainer, shards)
		for s := range pm {
			sd, err := dataset.New("evictpool", slices.Clone(parts[s]), d.NumItems())
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMaintainer(sd, opts)
			if err != nil {
				t.Fatal(err)
			}
			out[s] = m
			pm[s] = wrap(m)
		}
		p, err := shard.NewPool(pm, d.NumUsers())
		if err != nil {
			t.Fatal(err)
		}
		return p
	}
	pool := newPool(func(m *Maintainer) shard.Maintainer { return maintainerShard{m} }, ms)
	ref := newPool(func(m *Maintainer) shard.Maintainer { return fullScanShard{maintainerShard{m}} }, refs)

	s := &evictStream{rng: rand.New(rand.NewSource(5)), belowRating: 3, lists: true}
	profile := func(g uint32) Profile {
		p, ok := pool.View().Profile(g)
		if !ok {
			t.Fatalf("user %d missing from pool view", g)
		}
		return p
	}
	for step := 0; step < 160; step++ {
		if s.step(t, profile, pool.NumUsers(), d.NumItems(), pool, ref) {
			for i := range ms {
				requireMatchesReference(t, step, ms[i], refs[i])
			}
		}
	}
}

// TestRebuildLeavesNoStaleSimilarity streams Insert / AddRating /
// Rebuild(nil) through a maintainer and checks, after every rebuild,
// that every edge of the published graph carries exactly the similarity
// metric.Prepare computes on the current dataset. Adamic–Adar is left
// out: it weighs shared items by their popularity |IPi|, which every
// rating of a new item changes for pairs no rebuild touches (see
// Maintainer.Rebuild).
func TestRebuildLeavesNoStaleSimilarity(t *testing.T) {
	fixtures := []struct {
		preset    string
		scale     float64
		minRating float64
	}{
		{"wikipedia", 0.1, 0},
		{"gowalla", 0.01, 0},
		{"gowalla", 0.01, 3},
	}
	seed := int64(100)
	for _, fx := range fixtures {
		for _, metric := range []string{"cosine", "dice", "jaccard", "overlap"} {
			seed++
			name := fmt.Sprintf("%s/%s/min=%g", fx.preset, metric, fx.minRating)
			t.Run(name, func(t *testing.T) {
				d, err := GeneratePreset(fx.preset, fx.scale, 23)
				if err != nil {
					t.Fatal(err)
				}
				opts := Options{K: 5, Metric: metric, MinRating: fx.minRating}
				m, err := NewMaintainer(d, opts)
				if err != nil {
					t.Fatal(err)
				}
				sm, err := similarity.ByName(metric)
				if err != nil {
					t.Fatal(err)
				}
				s := &evictStream{rng: rand.New(rand.NewSource(seed)), binary: d.Binary(), belowRating: fx.minRating}
				for step := 0; step < 60; step++ {
					if s.step(t, d.User, d.NumUsers(), d.NumItems(), m) {
						requireExactEdges(t, step, m, sm)
					}
				}
			})
		}
	}

	// The MinRating corner, constructed rather than drawn: user u re-rates
	// below the threshold the only item it shares above the threshold with
	// a holder v (v's heap lists u). u's filtered candidate list then
	// misses v, yet v's entry for u is stale — the eviction walk over u's
	// raw item rows must still reach it.
	t.Run("gowalla/cosine/min=3/filtered-holder", func(t *testing.T) {
		const minRating = 3
		d, err := GeneratePreset("gowalla", 0.01, 23)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMaintainer(d, Options{K: 5, MinRating: minRating})
		if err != nil {
			t.Fatal(err)
		}
		g := m.Graph()
		u, v, item, found := uint32(0), uint32(0), uint32(0), false
		for h := 0; h < g.NumUsers() && !found; h++ {
			for _, nb := range g.Neighbors(uint32(h)) {
				if it, n := sharedAbove(d.User(uint32(h)), d.User(nb.ID), minRating); n == 1 {
					u, v, item, found = nb.ID, uint32(h), it, true
					break
				}
			}
		}
		if !found {
			t.Fatal("fixture has no holder sharing a single item above the threshold")
		}
		if err := m.AddRating(u, item, 1); err != nil {
			t.Fatal(err)
		}
		if slices.Contains(rcs.CandidatesFor(d, u, rcs.BuildOptions{MinRating: minRating}), v) {
			t.Fatalf("user %d is still a filtered candidate of %d: the case is not exercised", v, u)
		}
		if err := m.Rebuild(nil); err != nil {
			t.Fatal(err)
		}
		requireExactEdges(t, 0, m, similarity.Cosine{})
	})
}

// sharedAbove returns how many items a and b both rate at least min > 0,
// and the last such item.
func sharedAbove(a, b Profile, min float64) (item uint32, n int) {
	for i, it := range a.IDs {
		if a.Weight(i) >= min && b.WeightOf(it) >= min {
			item = it
			n++
		}
	}
	return item, n
}

// requireExactEdges fails unless every edge of m's published graph holds
// the similarity metric.Prepare gives on the current dataset, bit for bit.
func requireExactEdges(t *testing.T, step int, m *Maintainer, metric similarity.Metric) {
	t.Helper()
	sim := metric.Prepare(m.Dataset()).Pair
	g := m.Snapshot().Graph()
	for u := 0; u < g.NumUsers(); u++ {
		for _, nb := range g.Neighbors(uint32(u)) {
			if want := sim(uint32(u), nb.ID); nb.Sim != want {
				t.Fatalf("step %d: stale edge %d→%d: recorded sim %v, true sim %v", step, u, nb.ID, nb.Sim, want)
			}
		}
	}
}

// TestRebuildKeepsZeroSimilarityPadding pins the eviction rule for graphs
// that pad neighborhoods with users sharing no item: a brute-force graph
// over profiles {1}, {1}, {2}, {3} with k = 3 gives user 2 the
// zero-similarity entry (0, 0). After user 0 rates a new item, that
// entry's similarity is still 0, so Rebuild keeps it — only entries whose
// similarity can have changed are evicted — and every retained
// similarity stays exact.
func TestRebuildKeepsZeroSimilarityPadding(t *testing.T) {
	profiles := []Profile{{IDs: []uint32{1}}, {IDs: []uint32{1}}, {IDs: []uint32{2}}, {IDs: []uint32{3}}}
	d, err := NewDataset("padding", profiles, 4)
	if err != nil {
		t.Fatal(err)
	}
	exact, err := Build(d, Options{K: 3, Algorithm: BruteForce})
	if err != nil {
		t.Fatal(err)
	}
	holds := func(g *Graph) bool {
		for _, nb := range g.Neighbors(2) {
			if nb.ID == 0 && nb.Sim == 0 {
				return true
			}
		}
		return false
	}
	if !holds(exact.Graph) {
		t.Fatalf("brute-force fixture: user 2's neighbors %v lack the (0, 0) padding entry", exact.Graph.Neighbors(2))
	}
	m, err := NewMaintainerFromGraph(d, exact.Graph, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.AddRating(0, 5, 1); err != nil {
		t.Fatal(err)
	}
	if err := m.Rebuild(nil); err != nil {
		t.Fatal(err)
	}
	if g := m.Snapshot().Graph(); !holds(g) {
		t.Fatalf("user 2's neighbors %v lost the (0, 0) entry", g.Neighbors(2))
	}
	requireExactEdges(t, 0, m, similarity.Cosine{})
}
