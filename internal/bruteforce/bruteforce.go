// Package bruteforce computes exact KNN graphs by exhaustive pairwise
// comparison. The paper uses exactly this as ground truth: "for each
// dataset, an ideal KNN is constructed using a brute force approach"
// (§IV-C). It also provides a sampled variant for datasets where the full
// O(|U|²) sweep is too expensive; per-user recall averaged over a uniform
// sample is an unbiased estimate of Eq. (4).
package bruteforce

import (
	"math/rand"
	"sort"

	"kiff/internal/dataset"
	"kiff/internal/knngraph"
	"kiff/internal/knnheap"
	"kiff/internal/parallel"
	"kiff/internal/similarity"
)

// Exact computes ground truth for every user: the exact top-k lists plus
// tie thresholds. workers < 1 uses all CPUs.
func Exact(d *dataset.Dataset, metric similarity.Metric, k, workers int) *knngraph.Exact {
	n := d.NumUsers()
	sim := metric.Prepare(d).Pair
	heaps := knnheap.NewSet(n, k)
	// Shard the outer user; each pair (u,v) with u<v is evaluated once and
	// offered to both heaps, like the pivot strategy of the real algorithms.
	parallel.Blocks(n, workers, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			for v := u + 1; v < n; v++ {
				s := sim(uint32(u), uint32(v))
				heaps.Update(uint32(u), uint32(v), s)
				heaps.Update(uint32(v), uint32(u), s)
			}
		}
	})
	g := knngraph.FromSet(heaps)
	return knngraph.BuildExact(k, nil, g.Views())
}

// Sampled computes ground truth for sampleSize users drawn uniformly
// without replacement (deterministically from seed). Each sampled user is
// compared against the full population, so its top-k list is exact.
func Sampled(d *dataset.Dataset, metric similarity.Metric, k, sampleSize int, seed int64, workers int) *knngraph.Exact {
	n := d.NumUsers()
	if sampleSize >= n {
		return Exact(d, metric, k, workers)
	}
	rng := rand.New(rand.NewSource(seed))
	perm := rng.Perm(n)[:sampleSize]
	users := make([]uint32, sampleSize)
	for i, u := range perm {
		users[i] = uint32(u)
	}
	sort.Slice(users, func(a, b int) bool { return users[a] < users[b] })

	sim := metric.Prepare(d).Pair
	lists := make([][]knngraph.Neighbor, sampleSize)
	parallel.For(sampleSize, workers, func(_, i int) {
		u := users[i]
		heap := knnheap.NewSet(1, k)
		for v := 0; v < n; v++ {
			if uint32(v) == u {
				continue
			}
			heap.Update(0, uint32(v), sim(u, uint32(v)))
		}
		g := knngraph.FromSet(heap)
		lists[i] = g.Neighbors(0)
	})
	return knngraph.BuildExact(k, users, lists)
}

// Graph computes the exact KNN graph itself (rather than the recall
// ground-truth wrapper); used by the γ=∞ optimality tests and by
// downstream users who want the true graph at small scale.
func Graph(d *dataset.Dataset, metric similarity.Metric, k, workers int) *knngraph.Graph {
	n := d.NumUsers()
	sim := metric.Prepare(d).Pair
	heaps := knnheap.NewSet(n, k)
	parallel.Blocks(n, workers, func(_, lo, hi int) {
		for u := lo; u < hi; u++ {
			for v := u + 1; v < n; v++ {
				s := sim(uint32(u), uint32(v))
				heaps.Update(uint32(u), uint32(v), s)
				heaps.Update(uint32(v), uint32(u), s)
			}
		}
	})
	return knngraph.FromSet(heaps)
}
