package dataset

import (
	"math"
	"testing"

	"kiff/internal/sparse"
)

func mustNew(t *testing.T, name string, users []sparse.Vector, items int) *Dataset {
	t.Helper()
	d, err := New(name, users, items)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return d
}

func TestNewValidates(t *testing.T) {
	users := []sparse.Vector{{IDs: []uint32{0, 5}}}
	if _, err := New("bad", users, 3); err == nil {
		t.Fatal("New must reject out-of-range item ids")
	}
	if _, err := New("ok", users, 6); err != nil {
		t.Fatalf("New rejected valid dataset: %v", err)
	}
}

func TestCounts(t *testing.T) {
	d := mustNew(t, "t", []sparse.Vector{
		{IDs: []uint32{0, 1}},
		{IDs: []uint32{1}},
		{},
	}, 4)
	if d.NumUsers() != 3 {
		t.Errorf("NumUsers = %d, want 3", d.NumUsers())
	}
	if d.NumItems() != 4 {
		t.Errorf("NumItems = %d, want 4", d.NumItems())
	}
	if d.NumRatings() != 3 {
		t.Errorf("NumRatings = %d, want 3", d.NumRatings())
	}
	wantDensity := 3.0 / 12.0
	if math.Abs(d.Density()-wantDensity) > 1e-12 {
		t.Errorf("Density = %v, want %v", d.Density(), wantDensity)
	}
}

func TestBinary(t *testing.T) {
	bin := mustNew(t, "b", []sparse.Vector{{IDs: []uint32{0}}}, 1)
	if !bin.Binary() {
		t.Error("dataset without weights must be binary")
	}
	w := mustNew(t, "w", []sparse.Vector{{IDs: []uint32{0}, Weights: []float64{2}}}, 1)
	if w.Binary() {
		t.Error("dataset with weights must not be binary")
	}
}

func TestItemProfiles(t *testing.T) {
	d := mustNew(t, "t", []sparse.Vector{
		{IDs: []uint32{0, 1}}, // user 0: items 0,1
		{IDs: []uint32{1, 2}}, // user 1: items 1,2
		{IDs: []uint32{1}},    // user 2: item 1
	}, 3)
	d.EnsureItemProfiles()
	want := [][]uint32{{0}, {0, 1, 2}, {1}}
	for i := range want {
		got := d.Item(uint32(i))
		if len(got) != len(want[i]) {
			t.Fatalf("item %d profile = %v, want %v", i, got, want[i])
		}
		for j := range want[i] {
			if got[j] != want[i][j] {
				t.Fatalf("item %d profile = %v, want %v", i, got, want[i])
			}
		}
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate after EnsureItemProfiles: %v", err)
	}
}

func TestProfileSizes(t *testing.T) {
	d := mustNew(t, "t", []sparse.Vector{
		{IDs: []uint32{0, 1, 2}},
		{IDs: []uint32{2}},
	}, 3)
	up := d.UserProfileSizes()
	if up[0] != 3 || up[1] != 1 {
		t.Errorf("UserProfileSizes = %v", up)
	}
	ip := d.ItemProfileSizes()
	if ip[0] != 1 || ip[1] != 1 || ip[2] != 2 {
		t.Errorf("ItemProfileSizes = %v", ip)
	}
}

func TestStats(t *testing.T) {
	d := mustNew(t, "stats", []sparse.Vector{
		{IDs: []uint32{0, 1}},
		{IDs: []uint32{0}},
	}, 4)
	s := d.Stats()
	if s.Users != 2 || s.Items != 4 || s.Ratings != 3 {
		t.Errorf("Stats = %+v", s)
	}
	if math.Abs(s.AvgUP-1.5) > 1e-12 || math.Abs(s.AvgIP-0.75) > 1e-12 {
		t.Errorf("Stats averages = %+v", s)
	}
	if s.String() == "" {
		t.Error("Stats.String must not be empty")
	}
}

func TestToy(t *testing.T) {
	d, users, items := Toy()
	if len(users) != 4 || len(items) != 4 {
		t.Fatalf("Toy sizes: %d users %d items", len(users), len(items))
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Toy dataset invalid: %v", err)
	}
	// Figure 2: Alice and Bob share coffee (item 1).
	if got := sparse.CommonCount(d.Users[0], d.Users[1]); got != 1 {
		t.Errorf("Alice∩Bob = %d, want 1", got)
	}
	// Carl and Dave share shopping.
	if got := sparse.CommonCount(d.Users[2], d.Users[3]); got != 1 {
		t.Errorf("Carl∩Dave = %d, want 1", got)
	}
	// Alice and Carl share nothing.
	if got := sparse.CommonCount(d.Users[0], d.Users[2]); got != 0 {
		t.Errorf("Alice∩Carl = %d, want 0", got)
	}
	// IPcoffee = {Alice, Bob}.
	if ip := d.Item(1); len(ip) != 2 || ip[0] != 0 || ip[1] != 1 {
		t.Errorf("IPcoffee = %v, want [0 1]", ip)
	}
}

func TestFromProfiles(t *testing.T) {
	d := FromProfiles("fp", []map[uint32]float64{
		{3: 2.0, 1: 1.0},
		{3: 5.0},
	}, false)
	if d.NumItems() != 4 {
		t.Errorf("NumItems = %d, want 4", d.NumItems())
	}
	if d.Users[0].WeightOf(3) != 2.0 {
		t.Errorf("weight = %v, want 2", d.Users[0].WeightOf(3))
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestValidateCatchesBadIndex(t *testing.T) {
	d := mustNew(t, "t", []sparse.Vector{{IDs: []uint32{0}}}, 1)
	d.EnsureItemProfiles()
	d.items = [][]Rater{{newRater(5, 1)}} // user 5 does not exist
	if err := d.Validate(); err == nil {
		t.Error("Validate must reject out-of-range user in item profile")
	}
	d.items = [][]Rater{{newRater(0, 1), newRater(0, 1)}} // duplicate
	if err := d.Validate(); err == nil {
		t.Error("Validate must reject non-ascending item profile")
	}
}
