package dataset

import (
	"math"
	"math/rand"
	"slices"
	"testing"

	"kiff/internal/sparse"
)

func TestAddUserPatchesIndex(t *testing.T) {
	d, _, _ := Toy()
	d.EnsureItemProfiles()
	nBefore := d.NumUsers()
	ratingsBefore := d.NumRatings()

	id, err := d.AddUser(sparse.Vector{IDs: []uint32{1, 2}}) // coffee, cheese
	if err != nil {
		t.Fatal(err)
	}
	if int(id) != nBefore {
		t.Errorf("AddUser id = %d, want %d", id, nBefore)
	}
	if d.NumUsers() != nBefore+1 || d.NumRatings() != ratingsBefore+2 {
		t.Errorf("shape after AddUser: %d users %d ratings", d.NumUsers(), d.NumRatings())
	}
	// The inverted index must have been patched in place and stay valid.
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate after AddUser: %v", err)
	}
	found := false
	for _, u := range d.Item(1) {
		if u == id {
			found = true
		}
	}
	if !found {
		t.Error("new user missing from item profile")
	}
}

func TestAddUserGrowsItemSpace(t *testing.T) {
	d, _, _ := Toy()
	d.EnsureItemProfiles()
	items := d.NumItems()
	id, err := d.AddUser(sparse.Vector{IDs: []uint32{uint32(items + 2)}})
	if err != nil {
		t.Fatal(err)
	}
	if d.NumItems() != items+3 {
		t.Errorf("NumItems = %d, want %d", d.NumItems(), items+3)
	}
	if len(d.items) != d.NumItems() {
		t.Errorf("index has %d entries, want %d", len(d.items), d.NumItems())
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate after item growth: %v", err)
	}
	if got := d.Item(uint32(items + 2)); len(got) != 1 || got[0] != id {
		t.Errorf("grown item profile = %v, want [%d]", got, id)
	}
}

func TestAddUserRejectsMalformedProfile(t *testing.T) {
	d, _, _ := Toy()
	if _, err := d.AddUser(sparse.Vector{IDs: []uint32{3, 1}}); err == nil {
		t.Error("unsorted profile must be rejected")
	}
	if _, err := d.AddUser(sparse.Vector{IDs: []uint32{1}, Weights: []float64{1, 2}}); err == nil {
		t.Error("length-mismatched profile must be rejected")
	}
}

func TestAddRatingInsertAndUpdate(t *testing.T) {
	d, _, _ := Toy()
	d.EnsureItemProfiles()

	// Update an existing (binary) rating to a weighted value: the profile
	// materializes weights.
	u := uint32(0)
	it := d.Users[u].IDs[0]
	if err := d.AddRating(u, it, 4); err != nil {
		t.Fatal(err)
	}
	if d.Users[u].IsBinary() {
		t.Error("profile must materialize weights for a non-unit rating")
	}
	if got := d.Users[u].WeightOf(it); got != 4 {
		t.Errorf("updated weight = %v, want 4", got)
	}
	// Other entries of the materialized profile keep their implicit 1.
	if d.Users[u].Len() > 1 {
		if got := d.Users[u].Weight(1); got != 1 {
			t.Errorf("untouched weight = %v, want 1", got)
		}
	}

	// Insert a new item mid-profile; the inverted index must stay sorted.
	ratingsBefore := d.NumRatings()
	if err := d.AddRating(2, 0, 2); err != nil { // Carl rates item 0
		t.Fatal(err)
	}
	if d.NumRatings() != ratingsBefore+1 {
		t.Errorf("ratings = %d, want %d", d.NumRatings(), ratingsBefore+1)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate after AddRating: %v", err)
	}

	// Rating 1 on a binary profile stays binary.
	if d.Users[3].IsBinary() {
		if err := d.AddRating(3, 0, 1); err != nil {
			t.Fatal(err)
		}
		if !d.Users[3].IsBinary() {
			t.Error("unit rating must not materialize weights")
		}
	}

	// New item IDs grow the space; unknown users are rejected.
	if err := d.AddRating(0, uint32(d.NumItems())+5, 3); err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate after item-growing AddRating: %v", err)
	}
	if err := d.AddRating(uint32(d.NumUsers()), 0, 1); err == nil {
		t.Error("out-of-range user must be rejected")
	}
}

// requireRowsMatch asserts that got (the live dataset or a view) holds
// exactly want's rows: profiles, item rows (users and rating bits),
// norms (bits) and the weighted bit.
func requireRowsMatch(t *testing.T, step string, got indexSource, want *Dataset) {
	t.Helper()
	if got.NumUsers() != want.NumUsers() || got.NumItems() != want.NumItems() {
		t.Fatalf("%s: %d users / %d items, want %d / %d", step,
			got.NumUsers(), got.NumItems(), want.NumUsers(), want.NumItems())
	}
	for u := uint32(0); int(u) < want.NumUsers(); u++ {
		a, b := got.User(u), want.User(u)
		if !slices.Equal(a.IDs, b.IDs) || !slices.Equal(a.Weights, b.Weights) {
			t.Fatalf("%s: user %d profile %v, want %v", step, u, a, b)
		}
		if math.Float64bits(got.Norm(u)) != math.Float64bits(want.Norm(u)) {
			t.Fatalf("%s: user %d norm %v, want %v", step, u, got.Norm(u), want.Norm(u))
		}
	}
	for i := uint32(0); int(i) < want.NumItems(); i++ {
		if a, b := got.Raters(i), want.Raters(i); !slices.Equal(a, b) {
			t.Fatalf("%s: item %d row %v, want %v", step, i, a, b)
		}
	}
	if got.Weighted() != want.Weighted() {
		t.Fatalf("%s: weighted %v, want %v", step, got.Weighted(), want.Weighted())
	}
}

// freshBuild indexes clones of d's current profiles from scratch.
func freshBuild(t *testing.T, d *Dataset) *Dataset {
	t.Helper()
	profiles := make([]sparse.Vector, d.NumUsers())
	for u, p := range d.Users {
		profiles[u] = p.Clone()
	}
	f, err := New(d.Name, profiles, d.NumItems())
	if err != nil {
		t.Fatal(err)
	}
	f.EnsureItemProfiles()
	return f
}

// TestMutationsMatchFreshBuild drives AddUser/AddRating through every
// row-maintenance case — a re-rating of a held item, a new item, an item
// past NumItems, a unit rating on a binary profile and a binary profile
// turning weighted — then a seeded random stream. After each mutation the
// live rows, norms and weighted bit must equal a fresh build from cloned
// profiles, and the view published before it must still equal the build
// from before it.
func TestMutationsMatchFreshBuild(t *testing.T) {
	const items = 30
	rng := rand.New(rand.NewSource(5))
	profiles := make([]sparse.Vector, 40)
	for u := range profiles {
		m := map[uint32]float64{}
		for len(m) < 1+rng.Intn(6) {
			m[uint32(rng.Intn(items))] = 1
		}
		profiles[u] = sparse.FromMap(m, true)
	}
	d, err := New("rows", profiles, items)
	if err != nil {
		t.Fatal(err)
	}
	d.EnsureItemProfiles()
	want := freshBuild(t, d)
	requireRowsMatch(t, "initial", d, want)
	if d.Weighted() {
		t.Fatal("binary dataset reports weighted")
	}

	step := func(name string, mutate func() error) {
		t.Helper()
		v, before := d.View(), want
		if err := mutate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want = freshBuild(t, d)
		requireRowsMatch(t, name, d, want)
		requireRowsMatch(t, name+" (earlier view)", v, before)
		if err := d.Validate(); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	held := func(u uint32) uint32 { p := d.Users[u]; return p.IDs[rng.Intn(p.Len())] }
	missing := func(u uint32) uint32 {
		for {
			if it := uint32(rng.Intn(d.NumItems())); !d.Users[u].Contains(it) {
				return it
			}
		}
	}

	step("unit rating on binary profile, held item", func() error { return d.AddRating(0, held(0), 1) })
	step("unit rating on binary profile, new item", func() error { return d.AddRating(1, missing(1), 1) })
	if d.Weighted() || !d.Users[1].IsBinary() {
		t.Fatal("unit ratings turned the dataset weighted")
	}
	step("binary profile turning weighted", func() error { return d.AddRating(2, held(2), 4) })
	if !d.Weighted() || d.Users[2].IsBinary() {
		t.Fatal("a rating of 4 left the dataset binary")
	}
	step("re-rating of a held item", func() error { return d.AddRating(2, held(2), 2.5) })
	step("new item on a weighted profile", func() error { return d.AddRating(2, missing(2), 3) })
	step("item past NumItems", func() error { return d.AddRating(3, uint32(d.NumItems()+2), 5) })
	step("new user past NumItems", func() error {
		_, err := d.AddUser(sparse.Vector{IDs: []uint32{1, uint32(d.NumItems() + 1)}, Weights: []float64{2, 0.5}})
		return err
	})
	for i := 0; i < 150; i++ {
		u := uint32(rng.Intn(d.NumUsers()))
		r := float64(1 + rng.Intn(5))
		switch rng.Intn(4) {
		case 0:
			step("random re-rating", func() error { return d.AddRating(u, held(u), r) })
		case 1:
			step("random new item", func() error { return d.AddRating(u, uint32(rng.Intn(d.NumItems()+3)), r) })
		case 2:
			m := map[uint32]float64{uint32(rng.Intn(d.NumItems())): r, uint32(rng.Intn(d.NumItems())): 1}
			step("random new user", func() error { _, err := d.AddUser(sparse.FromMap(m, rng.Intn(2) == 0)); return err })
		case 3:
			step("random unit rating", func() error { return d.AddRating(u, held(u), 1) })
		}
	}
}
