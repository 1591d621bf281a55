package knngraph

import "sort"

// DegreeStats summarizes the in-degree structure of a KNN graph. Out-
// degrees are bounded by k by construction; in-degrees are not — hub
// users attract many incoming edges, which drives the load imbalance of
// neighbor-of-neighbor approaches.
type DegreeStats struct {
	// MinOut, MaxOut and MeanOut describe the out-degree distribution
	// (≤ k by construction).
	MinOut, MaxOut int
	MeanOut        float64
	// MaxIn and MeanIn describe the unbounded in-degree distribution.
	MaxIn  int
	MeanIn float64
	// Isolated counts users with no outgoing edges (possible under KIFF
	// when a user shares items with nobody).
	Isolated int
}

// Degrees computes degree statistics.
func (g *Graph) Degrees() DegreeStats {
	st := DegreeStats{MinOut: -1}
	in := make([]int, g.NumUsers())
	totalOut := 0
	for u := 0; u < g.NumUsers(); u++ {
		d := len(g.Neighbors(uint32(u)))
		totalOut += d
		if d == 0 {
			st.Isolated++
		}
		if st.MinOut < 0 || d < st.MinOut {
			st.MinOut = d
		}
		if d > st.MaxOut {
			st.MaxOut = d
		}
		for _, nb := range g.Neighbors(uint32(u)) {
			if int(nb.ID) < len(in) {
				in[nb.ID]++
			}
		}
	}
	if st.MinOut < 0 {
		st.MinOut = 0
	}
	if n := g.NumUsers(); n > 0 {
		st.MeanOut = float64(totalOut) / float64(n)
		totalIn := 0
		for _, d := range in {
			totalIn += d
			if d > st.MaxIn {
				st.MaxIn = d
			}
		}
		st.MeanIn = float64(totalIn) / float64(n)
	}
	return st
}

// MeanSimilarity returns the average similarity over all edges, a cheap
// proxy for graph quality when ground truth is unavailable.
func (g *Graph) MeanSimilarity() float64 {
	var sum float64
	for u := 0; u < g.numUsers; u++ {
		for _, nb := range g.Neighbors(uint32(u)) {
			sum += nb.Sim
		}
	}
	if g.numEdges == 0 {
		return 0
	}
	return sum / float64(g.numEdges)
}

// Agreement returns the mean per-user Jaccard overlap between the
// neighbor sets of two graphs over the same user population. It is the
// standard way to compare two approximate KNN graphs without exact
// ground truth: 1 means identical neighborhoods.
func Agreement(a, b *Graph) float64 {
	n := a.NumUsers()
	if b.NumUsers() < n {
		n = b.NumUsers()
	}
	if n == 0 {
		return 0
	}
	var total float64
	for u := 0; u < n; u++ {
		total += jaccardIDs(a.Neighbors(uint32(u)), b.Neighbors(uint32(u)))
	}
	return total / float64(n)
}

func jaccardIDs(a, b []Neighbor) float64 {
	if len(a) == 0 && len(b) == 0 {
		return 1 // both empty: perfectly agreeing
	}
	ids := make(map[uint32]bool, len(a))
	for _, nb := range a {
		ids[nb.ID] = true
	}
	inter := 0
	for _, nb := range b {
		if ids[nb.ID] {
			inter++
		}
	}
	union := len(a) + len(b) - inter
	if union == 0 {
		return 1
	}
	return float64(inter) / float64(union)
}

// InDegreeCCDFInput returns the per-user in-degrees (for CCDF plotting).
func (g *Graph) InDegreeCCDFInput() []int {
	in := make([]int, g.NumUsers())
	for u := range in {
		for _, nb := range g.Neighbors(uint32(u)) {
			if int(nb.ID) < len(in) {
				in[nb.ID]++
			}
		}
	}
	return in
}

// TopHubs returns the n users with the highest in-degree, useful when
// debugging why a greedy baseline converges slowly (hub users dominate
// neighbor-of-neighbor candidate sets).
func (g *Graph) TopHubs(n int) []uint32 {
	in := g.InDegreeCCDFInput()
	ids := make([]uint32, len(in))
	for i := range ids {
		ids[i] = uint32(i)
	}
	sort.Slice(ids, func(a, b int) bool {
		if in[ids[a]] != in[ids[b]] {
			return in[ids[a]] > in[ids[b]]
		}
		return ids[a] < ids[b]
	})
	if len(ids) > n {
		ids = ids[:n]
	}
	return ids
}
