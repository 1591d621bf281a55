package knnheap

import (
	"slices"
	"testing"
)

func drainSorted(s *Set) []uint32 {
	d := s.DrainDirty(nil)
	slices.Sort(d)
	return d
}

func TestDirtyTrackingRecordsChanges(t *testing.T) {
	s := NewSet(8, 2)
	s.Update(0, 1, 0.5)
	s.TrackDirty()
	if d := s.DrainDirty(nil); len(d) != 0 {
		t.Fatalf("dirty right after TrackDirty: %v", d)
	}

	s.Update(2, 3, 0.9) // insert: change
	s.Update(2, 3, 0.9) // duplicate candidate: no change
	s.Update(2, 4, 0.8)
	s.Update(2, 5, 0.1) // heap full, worse than root: rejected
	if got, want := drainSorted(s), []uint32{2}; !slices.Equal(got, want) {
		t.Fatalf("dirty = %v, want %v", got, want)
	}

	// Remove and Clear mark; removing an absent ID and clearing an empty
	// heap do not.
	s.Remove(0, 1)
	s.Remove(3, 7) // heap 3 is empty: no change
	s.Clear(2)
	s.Clear(5) // already empty: no change
	if got, want := drainSorted(s), []uint32{0, 2}; !slices.Equal(got, want) {
		t.Fatalf("dirty = %v, want %v", got, want)
	}

	// Each drain opens a fresh interval: a user re-marked after a drain is
	// reported again, once.
	s.Update(2, 6, 0.7)
	s.Update(2, 7, 0.6)
	if got, want := drainSorted(s), []uint32{2}; !slices.Equal(got, want) {
		t.Fatalf("dirty = %v, want %v", got, want)
	}
}

func TestDirtyTrackingGrowMarksNewUsers(t *testing.T) {
	s := NewSet(3, 2)
	s.TrackDirty()
	s.DrainDirty(nil)
	s.Grow(2)
	if got, want := drainSorted(s), []uint32{3, 4}; !slices.Equal(got, want) {
		t.Fatalf("dirty after Grow = %v, want %v", got, want)
	}
	// The grown stamps must work: mutating a new user marks it.
	s.Update(4, 0, 0.3)
	if got, want := drainSorted(s), []uint32{4}; !slices.Equal(got, want) {
		t.Fatalf("dirty = %v, want %v", got, want)
	}
}

func TestDirtyTrackingEpochWrap(t *testing.T) {
	s := NewSet(4, 2)
	s.TrackDirty()
	s.Update(1, 2, 0.5)
	s.DrainDirty(nil)
	// Force the wrap: the next drain resets stamps instead of aliasing
	// epoch 0 (a stale stamp equal to the new epoch would suppress marks).
	s.epoch = ^uint32(0)
	s.stamp[1] = ^uint32(0) // as if 1 was marked in the current interval
	s.dirty = append(s.dirty[:0], 1)
	s.DrainDirty(nil)
	if s.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", s.epoch)
	}
	s.Update(1, 3, 0.9)
	if got, want := drainSorted(s), []uint32{1}; !slices.Equal(got, want) {
		t.Fatalf("dirty after wrap = %v, want %v (stale stamp suppressed the mark?)", got, want)
	}
}
