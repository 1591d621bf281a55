package kiff

// Property tests for copy-on-write snapshot publication: after an
// arbitrary seeded interleaving of Insert / AddRating / Rebuild, the
// incrementally patched snapshot must be indistinguishable — member for
// member, byte for byte — from a from-scratch export of the live state,
// and snapshots published earlier must stay bit-stable while later
// publications keep patching around them.

import (
	"bytes"
	"math"
	"math/rand"
	"sync"
	"testing"

	"kiff/internal/dataset"
	"kiff/internal/shard"
)

// profilesEqual compares two profiles entry for entry (weights included).
func profilesEqual(a, b Profile) bool {
	if a.Len() != b.Len() {
		return false
	}
	for i := range a.IDs {
		if a.IDs[i] != b.IDs[i] || a.Weight(i) != b.Weight(i) {
			return false
		}
	}
	return true
}

// graphBytes serializes a graph in the KFG1 binary format.
func graphBytes(t testing.TB, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

// checkSnapshotMatchesScratch asserts that the published snapshot equals
// a from-scratch export of the maintainer's live state: identical KFG1
// bytes (which pins neighbor membership, order and similarity bits) and
// identical query answers through the snapshot's O(1) view index versus
// a fresh index over the live dataset.
func checkSnapshotMatchesScratch(t *testing.T, m *Maintainer, opts Options, rng *rand.Rand, items int) {
	t.Helper()
	// Quiesce: ratings recorded since the last publication are not in any
	// snapshot yet by design — Rebuild publishes them (no-op when clean).
	if err := m.Rebuild(nil); err != nil {
		t.Fatal(err)
	}
	s := m.Snapshot()
	got := graphBytes(t, s.Graph())
	want := graphBytes(t, m.Graph()) // fresh flat FromSet export
	if !bytes.Equal(got, want) {
		t.Fatalf("version %d: patched snapshot graph bytes diverge from from-scratch export (%d vs %d bytes)",
			s.Version(), len(got), len(want))
	}
	view := s.Dataset()
	if err := view.Validate(); err != nil {
		t.Fatalf("version %d: snapshot view invalid: %v", s.Version(), err)
	}
	live := m.Dataset()
	if view.NumUsers() != live.NumUsers() || view.NumItems() != live.NumItems() {
		t.Fatalf("version %d: view covers %d users / %d items, live has %d / %d",
			s.Version(), view.NumUsers(), view.NumItems(), live.NumUsers(), live.NumItems())
	}
	for i := 0; i < 16; i++ {
		u := uint32(rng.Intn(live.NumUsers()))
		if !profilesEqual(view.User(u), live.Users[u]) {
			t.Fatalf("version %d: view profile of user %d diverges from live", s.Version(), u)
		}
	}
	q := randomProfile(rng, items)
	gotRes, err := s.Query(q, 5, -1)
	if err != nil {
		t.Fatal(err)
	}
	ix, err := NewIndex(live, opts)
	if err != nil {
		t.Fatal(err)
	}
	wantRes, err := ix.Query(q, 5, -1)
	if err != nil {
		t.Fatal(err)
	}
	if len(gotRes) != len(wantRes) {
		t.Fatalf("version %d: snapshot query returned %d results, fresh index %d", s.Version(), len(gotRes), len(wantRes))
	}
	for i := range wantRes {
		if gotRes[i].ID != wantRes[i].ID || gotRes[i].Sim != wantRes[i].Sim {
			t.Fatalf("version %d: query result %d: snapshot %v, fresh index %v", s.Version(), i, gotRes[i], wantRes[i])
		}
	}
}

// TestCOWMutationStream drives a seeded random mutation stream through a
// single Maintainer across several metrics (including adamic-adar, whose
// per-item weights every insert and new rating refreshes) and checks
// every published snapshot against a from-scratch export, while a
// concurrent reader hammers the publication pointer (the -race target of
// CI's race job). A mid-stream snapshot is pinned and must stay
// bit-identical after every later publication. The populations span two
// pages and eleven: on the larger one most publications replace pages
// that are only partly dirty, whose clean rows stay shared with snapshots
// published many versions earlier.
func TestCOWMutationStream(t *testing.T) {
	cases := []struct {
		seed   int64
		metric string
		users  int
	}{
		{seed: 1, metric: "cosine", users: 100},
		{seed: 7, metric: "jaccard", users: 100},
		{seed: 42, metric: "adamic-adar", users: 100},
		{seed: 3, metric: "dice", users: 700},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.metric, func(t *testing.T) {
			const items = 60
			opts := Options{K: 5, Metric: tc.metric}
			rng := rand.New(rand.NewSource(tc.seed))
			profiles := make([]Profile, tc.users)
			for u := range profiles {
				profiles[u] = randomProfile(rng, items)
			}
			d, err := NewDataset("cowfix", profiles, items)
			if err != nil {
				t.Fatal(err)
			}
			m, err := NewMaintainer(d, opts)
			if err != nil {
				t.Fatal(err)
			}

			// Concurrent snapshot readers: publication must never tear.
			done := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				r := rand.New(rand.NewSource(tc.seed + 1000))
				for {
					select {
					case <-done:
						return
					default:
					}
					s := m.Snapshot()
					n := s.NumUsers()
					u := uint32(r.Intn(n))
					for _, nb := range s.Neighbors(u) {
						if int(nb.ID) >= n || math.IsNaN(nb.Sim) {
							t.Errorf("reader: bad edge %d→%d (%v)", u, nb.ID, nb.Sim)
							return
						}
					}
					if _, err := s.Query(randomProfile(r, items), 3, 32); err != nil {
						t.Errorf("reader: query: %v", err)
						return
					}
				}
			}()

			var pinned *Snapshot
			var pinnedBytes []byte
			for step := 0; step < 60; step++ {
				switch rng.Intn(4) {
				case 0:
					if _, err := m.Insert(randomProfile(rng, items)); err != nil {
						t.Fatal(err)
					}
				case 1, 2:
					u := uint32(rng.Intn(m.Dataset().NumUsers()))
					if err := m.AddRating(u, uint32(rng.Intn(items)), float64(1+rng.Intn(5))); err != nil {
						t.Fatal(err)
					}
				case 3:
					if err := m.Rebuild(nil); err != nil {
						t.Fatal(err)
					}
				}
				if step%7 == 0 {
					checkSnapshotMatchesScratch(t, m, opts, rng, items)
				}
				if step == 20 {
					pinned = m.Snapshot()
					pinnedBytes = graphBytes(t, pinned.Graph())
				}
			}
			if err := m.Rebuild(nil); err != nil {
				t.Fatal(err)
			}
			checkSnapshotMatchesScratch(t, m, opts, rng, items)
			close(done)
			wg.Wait()

			// The pinned mid-stream snapshot must be untouched by the 40
			// publications that patched around it.
			if !bytes.Equal(pinnedBytes, graphBytes(t, pinned.Graph())) {
				t.Fatal("pinned snapshot's graph bytes changed after later publications")
			}
			if err := pinned.Dataset().Validate(); err != nil {
				t.Fatalf("pinned snapshot's view became invalid: %v", err)
			}
		})
	}
}

// TestCOWMutationStreamPool runs the same property over a 4-shard pool
// assembled from individually held maintainers: after a seeded stream of
// pool-level Insert / AddRating / Rebuild, every shard's published
// snapshot must be byte-identical to that shard's from-scratch export,
// and the pool view must serve the live profiles.
func TestCOWMutationStreamPool(t *testing.T) {
	const (
		shards = 4
		items  = 60
	)
	opts := Options{K: 5}
	rng := rand.New(rand.NewSource(99))

	base := make([]Profile, 90)
	for u := range base {
		base[u] = randomProfile(rng, items)
	}
	parts := make([][]Profile, shards)
	for g, p := range base {
		s := shard.Owner(uint32(g), shards)
		parts[s] = append(parts[s], p)
	}
	ms := make([]*Maintainer, shards)
	pm := make([]shard.Maintainer, shards)
	for s := 0; s < shards; s++ {
		sd, err := dataset.New("cowpool", parts[s], items)
		if err != nil {
			t.Fatal(err)
		}
		m, err := NewMaintainer(sd, opts)
		if err != nil {
			t.Fatal(err)
		}
		ms[s] = m
		pm[s] = maintainerShard{m}
	}
	pool, err := shard.NewPool(pm, len(base))
	if err != nil {
		t.Fatal(err)
	}

	checkShards := func() {
		t.Helper()
		for s, m := range ms {
			got := graphBytes(t, m.Snapshot().Graph())
			want := graphBytes(t, m.Graph())
			if !bytes.Equal(got, want) {
				t.Fatalf("shard %d: patched snapshot diverges from from-scratch export", s)
			}
			if err := m.Snapshot().Dataset().Validate(); err != nil {
				t.Fatalf("shard %d: snapshot view invalid: %v", s, err)
			}
		}
	}

	checkShards()
	for step := 0; step < 40; step++ {
		switch rng.Intn(4) {
		case 0:
			if _, err := pool.Insert(randomProfile(rng, items)); err != nil {
				t.Fatal(err)
			}
		case 1, 2:
			g := uint32(rng.Intn(pool.NumUsers()))
			if err := pool.AddRating(g, uint32(rng.Intn(items)), float64(1+rng.Intn(5))); err != nil {
				t.Fatal(err)
			}
		case 3:
			if err := pool.Rebuild(nil); err != nil {
				t.Fatal(err)
			}
		}
		if step%5 == 0 {
			checkShards()
		}
	}
	if err := pool.Rebuild(nil); err != nil {
		t.Fatal(err)
	}
	checkShards()

	// The pinned pool view serves the shards' live profiles.
	v := pool.View()
	for g := 0; g < pool.NumUsers(); g++ {
		p, ok := v.Profile(uint32(g))
		if !ok {
			t.Fatalf("user %d missing from pool view", g)
		}
		if p.Len() == 0 {
			t.Fatalf("user %d: empty profile from pool view", g)
		}
	}

	// Publication counters reflect copy-on-write: pages were shared. The
	// pool's counters are the sum of its shards'.
	c := pool.Counters()
	if c.Publishes == 0 || c.PagesShared == 0 || c.EntriesCopied == 0 {
		t.Fatalf("pool counters show no COW activity: %+v", c)
	}
	var sum Counters
	for _, m := range ms {
		sum.Add(m.Counters())
	}
	if c != sum {
		t.Fatalf("pool counters %+v, shard sum %+v", c, sum)
	}
}
