package rcs

import (
	"math/rand"
	"slices"
	"testing"
)

// TestRankKeyMatchesCompareRanked pins the packed-key sort to the
// canonical comparator: ascending RankKey order must equal CompareRanked
// order for every (count, id) pair, and the count/id must round-trip.
func TestRankKeyMatchesCompareRanked(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	type cand struct {
		count int32
		id    uint32
	}
	cands := make([]cand, 300)
	for i := range cands {
		cands[i] = cand{count: int32(1 + r.Intn(1<<20)), id: uint32(r.Intn(1 << 24))}
	}
	// A few extremes: count 1, huge counts, adjacent ids with equal counts.
	cands = append(cands,
		cand{1, 0}, cand{1, 1}, cand{1 << 30, 0}, cand{1 << 30, 7},
		cand{5, 100}, cand{5, 101}, cand{5, 99})

	byCompare := slices.Clone(cands)
	slices.SortFunc(byCompare, func(a, b cand) int {
		return CompareRanked(a.count, b.count, a.id, b.id)
	})
	byKey := slices.Clone(cands)
	slices.SortFunc(byKey, func(a, b cand) int {
		ka, kb := RankKey(a.count, a.id), RankKey(b.count, b.id)
		switch {
		case ka < kb:
			return -1
		case ka > kb:
			return 1
		}
		return 0
	})
	for i := range byCompare {
		if byCompare[i] != byKey[i] {
			t.Fatalf("order diverges at %d: CompareRanked gives %+v, RankKey gives %+v",
				i, byCompare[i], byKey[i])
		}
	}
	for _, c := range cands {
		k := RankKey(c.count, c.id)
		if RankKeyUser(k) != c.id || RankKeyCount(k) != c.count {
			t.Fatalf("RankKey(%d, %d) does not round-trip: user %d count %d",
				c.count, c.id, RankKeyUser(k), RankKeyCount(k))
		}
	}
}

// TestSelectRankedMatchesSort pins the budget cut: after SelectRanked,
// keys[:n] must be exactly the n smallest keys, for random, sorted and
// reversed inputs and every cut from 0 past the end.
func TestSelectRankedMatchesSort(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for round := 0; round < 200; round++ {
		size := r.Intn(80)
		seen := map[uint64]bool{}
		keys := make([]uint64, 0, size)
		for len(keys) < size {
			k := RankKey(int32(1+r.Intn(6)), uint32(r.Intn(1000)))
			if !seen[k] {
				seen[k] = true
				keys = append(keys, k)
			}
		}
		switch round % 3 {
		case 1:
			slices.Sort(keys)
		case 2:
			slices.Sort(keys)
			slices.Reverse(keys)
		}
		want := slices.Sorted(slices.Values(keys))
		for n := 0; n <= size+1; n++ {
			got := slices.Clone(keys)
			SelectRanked(got, n)
			m := min(n, size)
			head := slices.Sorted(slices.Values(got[:m]))
			if !slices.Equal(head, want[:m]) {
				t.Fatalf("size %d n %d: selected %v, want %v", size, n, head, want[:m])
			}
			if !slices.Equal(slices.Sorted(slices.Values(got)), want) {
				t.Fatalf("size %d n %d: SelectRanked lost or duplicated keys", size, n)
			}
		}
	}
}
