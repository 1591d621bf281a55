package kiff

import (
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"testing"
	"unsafe"

	"kiff/internal/dataset"
	"kiff/internal/shard"
)

// randShardDataset draws a random bipartite dataset with enough item
// overlap for queries to have non-trivial answers.
func randShardDataset(r *rand.Rand, users int) *Dataset {
	profiles := randShardProfiles(r, users)
	return dataset.FromProfiles("shardrand", profiles, r.Intn(2) == 0)
}

// randShardProfiles draws the rating maps of randShardDataset.
func randShardProfiles(r *rand.Rand, users int) []map[uint32]float64 {
	items := 5 + r.Intn(25)
	profiles := make([]map[uint32]float64, users)
	for u := range profiles {
		m := map[uint32]float64{}
		n := 1 + r.Intn(6)
		for i := 0; i < n; i++ {
			m[uint32(r.Intn(items))] = float64(1 + r.Intn(5))
		}
		profiles[u] = m
	}
	return profiles
}

// randQuery draws a weighted query profile over the dataset's item space.
func randQuery(r *rand.Rand, d *Dataset) Profile {
	return ProfileFromMap(randQueryMap(r, d), false)
}

func randQueryMap(r *rand.Rand, d *Dataset) map[uint32]float64 {
	m := map[uint32]float64{}
	n := 1 + r.Intn(5)
	for i := 0; i < n; i++ {
		m[uint32(r.Intn(d.NumItems()))] = float64(1 + r.Intn(5))
	}
	return m
}

// TestShardedQueryMatchesSingle is the pinned-equality property of the
// scatter-gather layer: for the four profile-local metrics, an exact
// sharded Query must return exactly the single-Maintainer answer — same
// members, same order, bit-identical similarities — across binary and
// weighted random datasets, shard counts and binary and weighted query
// profiles.
func TestShardedQueryMatchesSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for _, metric := range []string{"cosine", "jaccard", "dice", "overlap"} {
		for _, shards := range []int{2, 3, 5} {
			for round := 0; round < 6; round++ {
				binary := round%2 == 0
				d := dataset.FromProfiles("shardrand", randShardProfiles(rng, 20+rng.Intn(60)), binary)
				k := 1 + rng.Intn(8)
				opts := Options{K: k, Metric: metric}
				single, err := NewMaintainer(d, opts)
				if err != nil {
					t.Fatalf("NewMaintainer: %v", err)
				}
				pool, err := NewShardedMaintainer(d, shards, opts)
				if err != nil {
					t.Fatalf("NewShardedMaintainer: %v", err)
				}
				if pool.NumUsers() != d.NumUsers() || pool.K() != k || pool.NumShards() != shards {
					t.Fatalf("pool shape = (%d users, k=%d, %d shards), want (%d, %d, %d)",
						pool.NumUsers(), pool.K(), pool.NumShards(), d.NumUsers(), k, shards)
				}
				for q := 0; q < 10; q++ {
					profile := ProfileFromMap(randQueryMap(rng, d), q%2 == 0)
					want, err := single.Snapshot().Query(profile, k, -1)
					if err != nil {
						t.Fatalf("single query: %v", err)
					}
					got, err := pool.View().Query(profile, k, -1)
					if err != nil {
						t.Fatalf("sharded query: %v", err)
					}
					if len(got) != len(want) {
						t.Fatalf("metric=%s shards=%d binary=%v: sharded query returned %d results, single %d\n got: %v\nwant: %v",
							metric, shards, binary, len(got), len(want), got, want)
					}
					for i := range want {
						if got[i] != want[i] {
							t.Fatalf("metric=%s shards=%d binary=%v k=%d: result %d = %+v, single-maintainer %+v\n got: %v\nwant: %v",
								metric, shards, binary, k, i, got[i], want[i], got, want)
						}
					}
				}
			}
		}
	}
}

// TestShardedSingleShardMatchesMaintainer pins the one-shard pool — the
// unsharded serving backend — to the Maintainer it wraps: over a seeded
// Insert/AddRating/Rebuild stream applied to a Maintainer and to a
// one-shard pool, each over its own copy of the data, both must publish
// the same version and population, every neighbor list and profile, and
// the same Query answers at every k and budget after every step. The
// pool also adopts its dataset: the profiles it serves alias the input's
// storage (no re-compacted copy).
func TestShardedSingleShardMatchesMaintainer(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	profiles := randShardProfiles(rng, 50)
	d := dataset.FromProfiles("shardrand", profiles, false)
	opts := Options{K: 4}
	single, err := NewMaintainer(dataset.FromProfiles("shardrand", profiles, false), opts)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewShardedMaintainer(d, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	for u := range d.Users {
		got, ok := pool.View().Profile(uint32(u))
		if !ok || len(got.IDs) == 0 || unsafe.SliceData(got.IDs) != unsafe.SliceData(d.Users[u].IDs) {
			t.Fatalf("user %d: the pool serves a copy of the input profile, want the adopted row", u)
		}
	}

	queries := make([]Profile, 6)
	for i := range queries {
		queries[i] = ProfileFromMap(randQueryMap(rng, d), i%2 == 0)
	}
	requireSame := func(step string) {
		t.Helper()
		snap, v := single.Snapshot(), pool.View()
		if v.Version() != snap.Version() || v.NumUsers() != snap.NumUsers() {
			t.Fatalf("%s: pool (version %d, %d users), maintainer (version %d, %d users)",
				step, v.Version(), v.NumUsers(), snap.Version(), snap.NumUsers())
		}
		for u := uint32(0); int(u) < snap.NumUsers(); u++ {
			got, err := v.Neighbors(u)
			if err != nil {
				t.Fatalf("%s: Neighbors(%d): %v", step, u, err)
			}
			if want := snap.Neighbors(u); !slices.Equal(got, want) {
				t.Fatalf("%s: user %d neighbors %v, want %v", step, u, got, want)
			}
			gp, gok := v.Profile(u)
			wp, wok := snap.Profile(u)
			if gok != wok || !slices.Equal(gp.IDs, wp.IDs) || !slices.Equal(gp.Weights, wp.Weights) {
				t.Fatalf("%s: user %d profile %v, want %v", step, u, gp, wp)
			}
		}
		for _, q := range queries {
			for _, k := range []int{1, 5, 20} {
				for _, budget := range []int{-1, 8} {
					got, gerr := v.Query(q, k, budget)
					want, werr := snap.Query(q, k, budget)
					if (gerr == nil) != (werr == nil) || !slices.Equal(got, want) {
						t.Fatalf("%s: Query(k=%d, budget=%d) = %v (%v), want %v (%v)", step, k, budget, got, gerr, want, werr)
					}
				}
			}
		}
	}
	requireSame("cold build")
	for step := 0; step < 40; step++ {
		var serr, perr error
		var name string
		switch op := rng.Intn(3); op {
		case 0:
			p := ProfileFromMap(randQueryMap(rng, d), rng.Intn(2) == 0)
			name = fmt.Sprintf("step %d Insert", step)
			_, serr = single.Insert(p)
			_, perr = pool.Insert(p)
		case 1:
			u, item, rating := uint32(rng.Intn(single.Dataset().NumUsers())), uint32(rng.Intn(d.NumItems()+2)), float64(1+rng.Intn(5))
			name = fmt.Sprintf("step %d AddRating(%d, %d, %v)", step, u, item, rating)
			serr = single.AddRating(u, item, rating)
			perr = pool.AddRating(u, item, rating)
		default:
			name = fmt.Sprintf("step %d Rebuild", step)
			serr = single.Rebuild(nil)
			perr = pool.Rebuild(nil)
		}
		if serr != nil || perr != nil {
			t.Fatalf("%s: maintainer err %v, pool err %v", name, serr, perr)
		}
		requireSame(name)
	}
}

// TestShardedNeighborsRouting checks that Neighbors answers come from
// the owning shard with correctly relabeled global IDs: every neighbor
// must share the owner shard with none other than... be a user the same
// shard owns, and be a valid, distinct global ID.
func TestShardedNeighborsRouting(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	d := randShardDataset(rng, 80)
	const shards = 4
	pool, err := NewShardedMaintainer(d, shards, Options{K: 5})
	if err != nil {
		t.Fatal(err)
	}
	v := pool.View()
	for g := 0; g < d.NumUsers(); g++ {
		owner := shard.Owner(uint32(g), shards)
		nbs, err := v.Neighbors(uint32(g))
		if err != nil {
			t.Fatalf("Neighbors(%d): %v", g, err)
		}
		for _, nb := range nbs {
			if nb.ID == uint32(g) {
				t.Fatalf("user %d lists itself", g)
			}
			if int(nb.ID) >= d.NumUsers() {
				t.Fatalf("user %d neighbor %d out of range", g, nb.ID)
			}
			if shard.Owner(nb.ID, shards) != owner {
				t.Fatalf("user %d (shard %d) lists %d (shard %d): shard graphs must be shard-local",
					g, owner, nb.ID, shard.Owner(nb.ID, shards))
			}
		}
	}
	if _, err := v.Neighbors(uint32(d.NumUsers())); !errors.Is(err, shard.ErrNotFound) {
		t.Fatalf("Neighbors(out of range) error = %v, want ErrNotFound", err)
	}
}

// TestShardedInsertAndRatingsMatchSingle drives the same mutation
// stream through a single Maintainer and a pool and checks the exact
// query surface stays identical — the datasets evolve in lockstep, so
// exact queries (which depend only on the data, not the graphs) must
// too.
func TestShardedInsertAndRatingsMatchSingle(t *testing.T) {
	rng := rand.New(rand.NewSource(43))
	d := randShardDataset(rng, 40)
	opts := Options{K: 4}
	single, err := NewMaintainer(cloneDataset(d), opts)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := NewShardedMaintainer(d, 3, opts)
	if err != nil {
		t.Fatal(err)
	}
	// Inserts: IDs must agree with the single maintainer's sequence.
	var batch []Profile
	for i := 0; i < 12; i++ {
		batch = append(batch, randQuery(rng, d))
	}
	singleIDs, err := single.InsertBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	poolIDs, err := pool.InsertBatch(batch)
	if err != nil {
		t.Fatal(err)
	}
	for i := range singleIDs {
		if poolIDs[i] != singleIDs[i] {
			t.Fatalf("insert %d: pool assigned ID %d, single %d", i, poolIDs[i], singleIDs[i])
		}
	}
	// Ratings + rebuild on both sides.
	for i := 0; i < 20; i++ {
		u := uint32(rng.Intn(single.Dataset().NumUsers()))
		it := uint32(rng.Intn(d.NumItems()))
		r := float64(1 + rng.Intn(5))
		if err := single.AddRating(u, it, r); err != nil {
			t.Fatal(err)
		}
		if err := pool.AddRating(u, it, r); err != nil {
			t.Fatal(err)
		}
	}
	if err := single.Rebuild(nil); err != nil {
		t.Fatal(err)
	}
	if err := pool.Rebuild(nil); err != nil {
		t.Fatal(err)
	}
	for q := 0; q < 12; q++ {
		profile := randQuery(rng, d)
		want, err := single.Snapshot().Query(profile, 5, -1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := pool.View().Query(profile, 5, -1)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("query %d diverged after mutations\n got: %v\nwant: %v", q, got, want)
		}
	}
	c := pool.Counters()
	if c.Inserts != 12 {
		t.Errorf("pool counters record %d inserts, want 12", c.Inserts)
	}
	if c.Rebuilds == 0 || c.RebuiltUsers == 0 {
		t.Errorf("pool counters record no rebuild work: %+v", c)
	}
}

// cloneDataset deep-copies a dataset so two maintainers can mutate
// independent replicas of the same population.
func cloneDataset(d *Dataset) *Dataset {
	profiles := make([]Profile, d.NumUsers())
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

// TestShardedPersistRoundTrip checks Save/LoadShardedMaintainer: the
// reloaded pool must serve identical neighbor lists and queries, and
// stay mutable.
func TestShardedPersistRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(57))
	d := randShardDataset(rng, 60)
	pool, err := NewShardedMaintainer(d, 4, Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := pool.Save(dir); err != nil {
		t.Fatalf("Save: %v", err)
	}
	loaded, err := LoadShardedMaintainer(dir, Options{})
	if err != nil {
		t.Fatalf("LoadShardedMaintainer: %v", err)
	}
	if loaded.NumUsers() != pool.NumUsers() || loaded.K() != pool.K() || loaded.NumShards() != pool.NumShards() {
		t.Fatalf("loaded pool shape = (%d, %d, %d), want (%d, %d, %d)",
			loaded.NumUsers(), loaded.K(), loaded.NumShards(), pool.NumUsers(), pool.K(), pool.NumShards())
	}
	v, lv := pool.View(), loaded.View()
	for g := 0; g < pool.NumUsers(); g++ {
		want, err := v.Neighbors(uint32(g))
		if err != nil {
			t.Fatal(err)
		}
		got, err := lv.Neighbors(uint32(g))
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("user %d neighbors diverged after reload\n got: %v\nwant: %v", g, got, want)
		}
	}
	for q := 0; q < 8; q++ {
		profile := randQuery(rng, d)
		want, err := v.Query(profile, 5, -1)
		if err != nil {
			t.Fatal(err)
		}
		got, err := lv.Query(profile, 5, -1)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("query %d diverged after reload\n got: %v\nwant: %v", q, got, want)
		}
	}
	// The mapped load path must recover the identical pool.
	mapped, err := LoadShardedMaintainerMapped(dir, Options{})
	if err != nil {
		t.Fatalf("LoadShardedMaintainerMapped: %v", err)
	}
	mv := mapped.View()
	for g := 0; g < pool.NumUsers(); g++ {
		want, err := v.Neighbors(uint32(g))
		if err != nil {
			t.Fatal(err)
		}
		got, err := mv.Neighbors(uint32(g))
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("user %d neighbors diverged under mapped reload\n got: %v\nwant: %v", g, got, want)
		}
	}

	// The reloaded pool is live: inserts continue the global sequence.
	id, err := loaded.Insert(randQuery(rng, d))
	if err != nil {
		t.Fatalf("insert into reloaded pool: %v", err)
	}
	if int(id) != pool.NumUsers() {
		t.Fatalf("reloaded pool assigned ID %d, want %d", id, pool.NumUsers())
	}
	if _, err := loaded.View().Neighbors(id); err != nil {
		t.Fatalf("Neighbors(new user): %v", err)
	}

	// Re-saving into the same directory (after mutations) must produce a
	// checkpoint that loads the new state — periodic checkpointing reuses
	// one directory.
	if err := loaded.Save(dir); err != nil {
		t.Fatalf("re-save into existing dir: %v", err)
	}
	again, err := LoadShardedMaintainer(dir, Options{})
	if err != nil {
		t.Fatalf("reload after re-save: %v", err)
	}
	if again.NumUsers() != loaded.NumUsers() {
		t.Fatalf("re-saved pool has %d users, want %d", again.NumUsers(), loaded.NumUsers())
	}
}

// TestLoadShardedMaintainerRejectsTampering checks the fail-fast paths:
// a manifest over a different population must be rejected.
func TestLoadShardedMaintainerRejectsTampering(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	d := randShardDataset(rng, 30)
	pool, err := NewShardedMaintainer(d, 2, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := pool.Save(dir); err != nil {
		t.Fatal(err)
	}
	other, err := NewShardedMaintainer(randShardDataset(rng, 29), 2, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	dir2 := t.TempDir()
	if err := other.Save(dir2); err != nil {
		t.Fatal(err)
	}
	// Splice shard files from a different population under dir's manifest.
	for i := 0; i < 2; i++ {
		if err := copyFile(t, dir2, dir, shard.GraphFile(i)); err != nil {
			t.Fatal(err)
		}
		if err := copyFile(t, dir2, dir, shard.DataFile(i)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := LoadShardedMaintainer(dir, Options{}); err == nil {
		t.Fatal("LoadShardedMaintainer must reject shard files from a different population")
	}
}

// TestShardedCheckpointRecordsMetric: a pool checkpoint records the
// metric its graphs were maintained under. Every loader adopts it when
// Options.Metric is empty, accepts it named again (under any alias), and
// refuses another metric with an error naming both — serving a jaccard
// graph under cosine would answer queries in one metric and neighbor
// lists in the other. A manifest without the field, as older releases
// wrote, keeps loading under the caller's metric.
func TestShardedCheckpointRecordsMetric(t *testing.T) {
	rng := rand.New(rand.NewSource(67))
	d := randShardDataset(rng, 40)
	queries := make([]Profile, 6)
	for i := range queries {
		queries[i] = randQuery(rng, d)
	}
	answers := func(v *shard.View) string {
		t.Helper()
		var sb strings.Builder
		for _, q := range queries {
			res, err := v.Query(q, 5, -1)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintln(&sb, res)
		}
		return sb.String()
	}
	cosineIx, err := NewIndex(d, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var cosine strings.Builder
	for _, q := range queries {
		res, err := cosineIx.Query(q, 5, -1)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintln(&cosine, res)
	}

	for _, tc := range []struct{ metric, alias string }{{"jaccard", "jaccard"}, {"adamic-adar", "adamicadar"}} {
		pool, err := NewShardedMaintainer(d, 2, Options{K: 4, Metric: tc.metric})
		if err != nil {
			t.Fatal(err)
		}
		want := answers(pool.View())
		if want == cosine.String() {
			t.Fatalf("%s: fixture answers equal cosine's; the test cannot tell the metrics apart", tc.metric)
		}
		dir := t.TempDir()
		if err := pool.Save(dir); err != nil {
			t.Fatal(err)
		}
		loaders := []struct {
			name string
			load func(Options) (*shard.View, error)
		}{
			{"heap", func(o Options) (*shard.View, error) {
				p, err := LoadShardedMaintainer(dir, o)
				if err != nil {
					return nil, err
				}
				return p.View(), nil
			}},
			{"mapped", func(o Options) (*shard.View, error) {
				p, err := LoadShardedMaintainerMapped(dir, o)
				if err != nil {
					return nil, err
				}
				return p.View(), nil
			}},
			{"view", func(o Options) (*shard.View, error) { return LoadShardedView(dir, o, false) }},
		}
		for _, l := range loaders {
			for _, metric := range []string{"", tc.alias} {
				v, err := l.load(Options{Metric: metric})
				if err != nil {
					t.Fatalf("%s/%s: load with metric %q: %v", tc.metric, l.name, metric, err)
				}
				if got := answers(v); got != want {
					t.Fatalf("%s/%s: load with metric %q answers\n%s\nwant\n%s", tc.metric, l.name, metric, got, want)
				}
			}
			_, err := l.load(Options{Metric: "cosine"})
			if err == nil || !strings.Contains(err.Error(), `"`+tc.metric+`"`) || !strings.Contains(err.Error(), `"cosine"`) {
				t.Fatalf("%s/%s: load with metric cosine: err = %v, want a refusal naming %q and \"cosine\"", tc.metric, l.name, err, tc.metric)
			}
		}

		// An older release's manifest has no metric: the caller's applies.
		path := filepath.Join(dir, shard.ManifestFile)
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var man map[string]any
		if err := json.Unmarshal(raw, &man); err != nil {
			t.Fatal(err)
		}
		delete(man, "metric")
		if raw, err = json.Marshal(man); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		for _, l := range loaders {
			v, err := l.load(Options{Metric: tc.metric})
			if err != nil {
				t.Fatalf("%s/%s: old manifest: %v", tc.metric, l.name, err)
			}
			if got := answers(v); got != want {
				t.Fatalf("%s/%s: old manifest under its own metric answers\n%s\nwant\n%s", tc.metric, l.name, got, want)
			}
			if v, err = l.load(Options{}); err != nil {
				t.Fatalf("%s/%s: old manifest, no metric: %v", tc.metric, l.name, err)
			}
			if got := answers(v); got != cosine.String() {
				t.Fatalf("%s/%s: old manifest with no metric answers\n%s\nwant cosine's\n%s", tc.metric, l.name, got, cosine.String())
			}
		}
	}
}

func copyFile(t *testing.T, fromDir, toDir, name string) error {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join(fromDir, name))
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(toDir, name), raw, 0o644)
}

// TestShardedEmptyShards covers populations smaller than the shard
// count: some shards stay empty, and everything still works.
func TestShardedEmptyShards(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	d := randShardDataset(rng, 3)
	pool, err := NewShardedMaintainer(d, 8, Options{K: 2})
	if err != nil {
		t.Fatal(err)
	}
	v := pool.View()
	for g := 0; g < 3; g++ {
		if _, err := v.Neighbors(uint32(g)); err != nil {
			t.Fatalf("Neighbors(%d): %v", g, err)
		}
	}
	if _, err := v.Query(randQuery(rng, d), 2, -1); err != nil {
		t.Fatalf("Query: %v", err)
	}
	dir := t.TempDir()
	if err := pool.Save(dir); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadShardedMaintainer(dir, Options{}); err != nil {
		t.Fatalf("reload with empty shards: %v", err)
	}
}

func TestNewShardedMaintainerValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(83))
	d := randShardDataset(rng, 10)
	if _, err := NewShardedMaintainer(d, 0, Options{K: 2}); err == nil {
		t.Error("shards = 0 must be rejected")
	}
	if _, err := NewShardedMaintainer(d, shard.MaxShards+1, Options{K: 2}); err == nil {
		t.Error("shards > MaxShards must be rejected")
	}
	if _, err := NewShardedMaintainer(d, 2, Options{K: 2, Algorithm: NNDescent}); err == nil {
		t.Error("non-KIFF algorithm must be rejected")
	}
}

// TestShardedPoolRace is the -race stress test: concurrent inserts,
// rating updates, rebuilds, queries, neighbor reads and stats reads
// across shards. Correctness here is "no race, no panic, monotonic
// population"; the exactness properties are pinned by the quiescent
// tests above.
func TestShardedPoolRace(t *testing.T) {
	rng := rand.New(rand.NewSource(97))
	d := randShardDataset(rng, 40)
	pool, err := NewShardedMaintainer(d, 4, Options{K: 3})
	if err != nil {
		t.Fatal(err)
	}
	const (
		writers    = 4
		perWriter  = 25
		readers    = 4
		raters     = 2
		perRater   = 20
		rebuilders = 1
	)
	var wgW, wgR sync.WaitGroup
	stop := make(chan struct{})
	// Inserters: each streams profiles through Insert/InsertBatch.
	for w := 0; w < writers; w++ {
		wgW.Add(1)
		go func(seed int64) {
			defer wgW.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < perWriter; i++ {
				if i%5 == 0 {
					batch := []Profile{randQuery(r, d), randQuery(r, d)}
					if _, err := pool.InsertBatch(batch); err != nil {
						t.Errorf("InsertBatch: %v", err)
						return
					}
				} else if _, err := pool.Insert(randQuery(r, d)); err != nil {
					t.Errorf("Insert: %v", err)
					return
				}
			}
		}(int64(100 + w))
	}
	// Raters + rebuilders churn existing neighborhoods.
	for w := 0; w < raters; w++ {
		wgW.Add(1)
		go func(seed int64) {
			defer wgW.Done()
			r := rand.New(rand.NewSource(seed))
			for i := 0; i < perRater; i++ {
				u := uint32(r.Intn(40)) // the initial population is always valid
				if err := pool.AddRating(u, uint32(r.Intn(d.NumItems())), float64(1+r.Intn(5))); err != nil {
					t.Errorf("AddRating: %v", err)
					return
				}
			}
		}(int64(200 + w))
	}
	for w := 0; w < rebuilders; w++ {
		wgW.Add(1)
		go func() {
			defer wgW.Done()
			for i := 0; i < 10; i++ {
				if err := pool.Rebuild(nil); err != nil {
					t.Errorf("Rebuild: %v", err)
					return
				}
			}
		}()
	}
	// Readers: views, queries, neighbors, stats, all while writes run.
	for w := 0; w < readers; w++ {
		wgR.Add(1)
		go func(seed int64) {
			defer wgR.Done()
			r := rand.New(rand.NewSource(seed))
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := pool.View()
				if v.NumUsers() < 40 {
					t.Errorf("view lost users: %d < 40", v.NumUsers())
					return
				}
				if _, err := v.Query(randQuery(r, d), 3, -1); err != nil {
					t.Errorf("Query: %v", err)
					return
				}
				g := uint32(r.Intn(v.NumUsers()))
				if _, err := v.Neighbors(g); err != nil && !errors.Is(err, shard.ErrPending) {
					t.Errorf("Neighbors(%d): %v", g, err)
					return
				}
				if st := pool.ShardStats(); len(st) != 4 {
					t.Errorf("ShardStats returned %d entries", len(st))
					return
				}
				pool.Counters()
				pool.Version()
			}
		}(int64(300 + w))
	}
	// Readers run for the whole write phase, then stop.
	wgW.Wait()
	close(stop)
	wgR.Wait()

	// Each writer iteration is one Insert, except every 5th which is an
	// InsertBatch of two profiles.
	want := 40 + writers*(perWriter-perWriter/5) + writers*(perWriter/5)*2
	if got := pool.NumUsers(); got != want {
		t.Fatalf("pool has %d users after the stress run, want %d", got, want)
	}
	// Quiesced: every user must now be fully visible.
	v := pool.View()
	for g := 0; g < pool.NumUsers(); g++ {
		if _, err := v.Neighbors(uint32(g)); err != nil {
			t.Fatalf("Neighbors(%d) after quiesce: %v", g, err)
		}
	}
}
