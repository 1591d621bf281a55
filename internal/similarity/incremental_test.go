package similarity

import (
	"testing"

	"kiff/internal/dataset"
	"kiff/internal/sparse"
)

// mutateAndRefresh applies the mutation shapes a Maintainer feeds its
// binding, refreshing after each one: a rating of an item u already
// holds (a re-weight; no item degree changes), a rating of an item u
// lacks, a rating of an item past the item space (the item tables grow),
// and an appended user that joins existing items and a new one. It
// returns the mutated users.
func mutateAndRefresh(t *testing.T, d *dataset.Dataset, refresh func(uint32), u, w uint32) []uint32 {
	t.Helper()
	if held := d.Users[u].IDs; len(held) > 0 {
		if err := d.AddRating(u, held[0], 4); err != nil {
			t.Fatal(err)
		}
		refresh(u)
	}
	if err := d.AddRating(u, 0, 5); err != nil {
		t.Fatal(err)
	}
	refresh(u)
	if err := d.AddRating(w, uint32(d.NumItems()+3), 2); err != nil {
		t.Fatal(err)
	}
	refresh(w)
	id, err := d.AddUser(sparse.Vector{IDs: []uint32{0, 1, 2, uint32(d.NumItems() - 1)}})
	if err != nil {
		t.Fatal(err)
	}
	refresh(id)
	return []uint32{u, w, id}
}

// TestPrepareIncrementalMatchesPrepare pins a refreshed binding to a
// fresh one: after appends and profile changes, each followed by
// Refresh, the binding prepared before them scores pairs exactly like a
// Prepare over the mutated dataset — for every metric. Pairs that
// involve no mutated user are checked too: a new rating of item i shifts
// Adamic–Adar's weight of i for every pair sharing it.
func TestPrepareIncrementalMatchesPrepare(t *testing.T) {
	for _, name := range Names() {
		metric, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := dataset.Wikipedia.Generate(0.01, 51)
		if err != nil {
			t.Fatal(err)
		}
		b := metric.Prepare(d)
		mutated := mutateAndRefresh(t, d, b.Refresh, 3, 5)
		fresh := metric.Prepare(d)
		n := uint32(d.NumUsers())
		for _, u := range mutated {
			for v := uint32(0); v < n; v++ {
				if a, f := b.Pair(u, v), fresh.Pair(u, v); u != v && a != f {
					t.Fatalf("%s: mutated-user mismatch at (%d,%d): %v vs %v", name, u, v, a, f)
				}
			}
		}
		for u := uint32(0); u < n; u += 5 {
			for v := u + 1; v < n; v += 7 {
				if a, f := b.Pair(u, v), fresh.Pair(u, v); a != f {
					t.Fatalf("%s: mismatch at (%d,%d): %v vs %v", name, u, v, a, f)
				}
			}
		}
	}
}

// TestIncrementalAppendBatchGrowsCache pushes a batch of appended users
// through every metric's binding — enough to force the per-user and
// per-item state (the dataset's norm cache, Adamic–Adar's weight table)
// to reallocate several times — and checks the binding still matches a
// fresh preparation for every pair touching the appended range. This
// covers the single-step growth in Refresh, including an ID jump past
// the end, which grows a table by more than one slot at once.
func TestIncrementalAppendBatchGrowsCache(t *testing.T) {
	for _, name := range Names() {
		metric, err := ByName(name)
		if err != nil {
			t.Fatal(err)
		}
		d, err := dataset.Wikipedia.Generate(0.005, 77)
		if err != nil {
			t.Fatal(err)
		}
		b := metric.Prepare(d)
		base := uint32(d.NumUsers())
		items := uint32(d.NumItems())
		const appended = 64 // well past the initial cache capacity
		for i := uint32(0); i < appended; i++ {
			// The third item walks past the item space, one new item per
			// user, so the item tables grow one slot at a time too.
			p := sparse.Vector{IDs: []uint32{i % 7, 10 + i%11, items + i}}
			if i%2 == 1 {
				p.Weights = []float64{1, float64(2 + i%4), 3}
			}
			id, err := d.AddUser(p)
			if err != nil {
				t.Fatal(err)
			}
			b.Refresh(id)
		}
		// An ID jump: refresh the later of two appended users first, so
		// the per-user state grows by two slots in one step.
		first, err := d.AddUser(sparse.Vector{IDs: []uint32{0, 1}})
		if err != nil {
			t.Fatal(err)
		}
		second, err := d.AddUser(sparse.Vector{IDs: []uint32{1, 3}, Weights: []float64{2, 5}})
		if err != nil {
			t.Fatal(err)
		}
		b.Refresh(second)
		b.Refresh(first)
		mutateAndRefresh(t, d, b.Refresh, base+1, base+2)

		fresh := metric.Prepare(d)
		n := uint32(d.NumUsers())
		for u := base; u < n; u++ {
			for v := uint32(0); v < n; v += 13 {
				if u == v {
					continue
				}
				if a, f := b.Pair(u, v), fresh.Pair(u, v); a != f {
					t.Fatalf("%s: appended-range mismatch at (%d,%d): %v vs %v", name, u, v, a, f)
				}
			}
		}
	}
}
