package dataset

import (
	"math"
	"slices"
	"testing"

	"kiff/internal/sparse"
)

// viewFixture builds a dataset big enough to span several header pages.
func viewFixture(t *testing.T, users int) *Dataset {
	t.Helper()
	profiles := make([]sparse.Vector, users)
	for u := range profiles {
		profiles[u] = sparse.Vector{IDs: []uint32{uint32(u % 50), uint32(50 + u%30)}}
	}
	d, err := New("viewfix", profiles, 80)
	if err != nil {
		t.Fatal(err)
	}
	d.EnsureItemProfiles()
	return d
}

func requireViewMatchesLive(t *testing.T, v *View, d *Dataset) {
	t.Helper()
	if v.NumUsers() != d.NumUsers() || v.NumItems() != d.NumItems() {
		t.Fatalf("view %d users / %d items, live %d / %d", v.NumUsers(), v.NumItems(), d.NumUsers(), d.NumItems())
	}
	for u := 0; u < d.NumUsers(); u++ {
		a, b := v.User(uint32(u)), d.Users[u]
		if a.Len() != b.Len() {
			t.Fatalf("user %d: view has %d items, live %d", u, a.Len(), b.Len())
		}
		for i := range a.IDs {
			if a.IDs[i] != b.IDs[i] || a.Weight(i) != b.Weight(i) {
				t.Fatalf("user %d entry %d diverges", u, i)
			}
		}
		if math.Float64bits(v.Norm(uint32(u))) != math.Float64bits(d.Norm(uint32(u))) {
			t.Fatalf("user %d: view norm %v, live %v", u, v.Norm(uint32(u)), d.Norm(uint32(u)))
		}
	}
	for i := 0; i < d.NumItems(); i++ {
		// Rater is comparable: equality covers the user and the rating bits.
		if a, b := v.Raters(uint32(i)), d.Raters(uint32(i)); !slices.Equal(a, b) {
			t.Fatalf("item %d: view row %v, live %v", i, a, b)
		}
	}
	if v.Weighted() != d.Weighted() {
		t.Fatalf("view weighted %v, live %v", v.Weighted(), d.Weighted())
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestViewMatchesLiveAcrossSizes(t *testing.T) {
	for _, users := range []int{1, 63, 64, 65, 150} {
		d := viewFixture(t, users)
		requireViewMatchesLive(t, d.View(), d)
	}
}

func TestViewSharesCleanPages(t *testing.T) {
	d := viewFixture(t, 150) // user and norm pages: 3 each, item pages: 2
	d.View()
	copied, shared := d.LastViewStats()
	if shared != 0 || copied != 8 {
		t.Fatalf("first view: copied %d, shared %d; want 8 copied", copied, shared)
	}

	// A clean republication shares every page.
	d.View()
	if copied, shared = d.LastViewStats(); copied != 0 || shared != 8 {
		t.Fatalf("clean view: copied %d, shared %d; want 8 shared", copied, shared)
	}

	// One rating on user 70 (user and norm page 1) touching item 10 (page
	// 0): exactly those three pages are rebuilt. (Item 10 gains user 70 —
	// an insert into the inverted index — because user 70's profile holds
	// 70%50=20 and 50+70%30=60, not 10.)
	if err := d.AddRating(70, 10, 1); err != nil {
		t.Fatal(err)
	}
	v := d.View()
	if copied, shared = d.LastViewStats(); copied != 3 || shared != 5 {
		t.Fatalf("after one rating: copied %d, shared %d; want 3 copied, 5 shared", copied, shared)
	}
	requireViewMatchesLive(t, v, d)
}

func TestViewImmutableUnderMutation(t *testing.T) {
	d := viewFixture(t, 100)
	v := d.View()
	before := v.User(5).Clone()
	beforeNorm := v.Norm(5)
	beforeItem := slices.Clone(v.Raters(5))

	// User 5 holds items 5 and 55: a unit rating of item 5 is a no-op on
	// its binary profile, a rating of 3 re-rates it (replacing the user
	// row and item 5's row, which carries the rating), and item 7 is new.
	if err := d.AddRating(5, 5, 1); err != nil {
		t.Fatal(err)
	}
	if err := d.AddRating(5, 5, 3); err != nil {
		t.Fatal(err)
	}
	if err := d.AddRating(5, 7, 2); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddUser(sparse.Vector{IDs: []uint32{5}}); err != nil {
		t.Fatal(err)
	}

	if v.NumUsers() != 100 || v.Weighted() {
		t.Fatalf("old view now covers %d users, weighted %v", v.NumUsers(), v.Weighted())
	}
	if got := v.User(5); !slices.Equal(got.IDs, before.IDs) || got.Weights != nil {
		t.Fatalf("old view's user 5 changed: %v -> %v", before, got)
	}
	if got := v.Norm(5); got != beforeNorm {
		t.Fatalf("old view's norm of user 5 changed: %v -> %v", beforeNorm, got)
	}
	if got := v.Raters(5); !slices.Equal(got, beforeItem) {
		t.Fatalf("old view's item 5 changed: %v -> %v", beforeItem, got)
	}
	if !d.Weighted() || d.Raters(5)[0] == beforeItem[0] {
		t.Fatal("live dataset did not take the re-rating")
	}
	if err := v.Validate(); err != nil {
		t.Fatal(err)
	}

	// The next view picks up both mutations and still matches live.
	requireViewMatchesLive(t, d.View(), d)
}

func TestViewGrowthRebuildsTailPages(t *testing.T) {
	d := viewFixture(t, 70) // partial tail user page [64..69]
	d.View()
	if _, err := d.AddUser(sparse.Vector{IDs: []uint32{0}}); err != nil {
		t.Fatal(err)
	}
	v := d.View()
	// User page 0 may be shared; the tail page grew and must be rebuilt
	// (plus the item page of item 0).
	copied, shared := d.LastViewStats()
	if copied == 0 || shared == 0 {
		t.Fatalf("growth view: copied %d, shared %d; want a mix", copied, shared)
	}
	requireViewMatchesLive(t, v, d)
}

func TestCompactInvalidatesViewCache(t *testing.T) {
	d := viewFixture(t, 100)
	d.View()
	d.Compact()
	v := d.View()
	copied, shared := d.LastViewStats()
	if shared != 0 {
		t.Fatalf("view after Compact shared %d pages with a pre-Compact view", shared)
	}
	if copied == 0 {
		t.Fatal("view after Compact copied nothing")
	}
	requireViewMatchesLive(t, v, d)
}
