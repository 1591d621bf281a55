package knngraph

import (
	"math/rand"
	"slices"
	"testing"
)

// TestTopKMatchesSortTruncate: the bounded selection must keep exactly
// the first k entries of the fully sorted stream, in canonical order,
// including under heavy similarity ties and for k past the stream length.
func TestTopKMatchesSortTruncate(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for round := 0; round < 300; round++ {
		n := r.Intn(60)
		stream := make([]Neighbor, n)
		for i, id := range r.Perm(n + 10)[:n] {
			stream[i] = Neighbor{ID: uint32(id), Sim: float64(r.Intn(5)) / 4}
		}
		want := slices.Clone(stream)
		SortNeighbors(want)
		for _, k := range []int{0, 1, 2, 5, n, n + 3} {
			top := NewTopK(make([]Neighbor, 0, min(k, n)), k)
			for _, nb := range stream {
				top.Push(nb)
			}
			got := top.Sorted()
			if !slices.Equal(got, want[:min(k, n)]) {
				t.Fatalf("n=%d k=%d: TopK = %v, want %v", n, k, got, want[:min(k, n)])
			}
		}
	}
}
