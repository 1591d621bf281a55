package experiments

import (
	"math/rand"

	"kiff/internal/dataset"
	"kiff/internal/knngraph"
	"kiff/internal/rcs"
	"kiff/internal/similarity"
)

// Table7Row compares the initial recall of the two bootstrap strategies
// for one dataset: KIFF's "top k of each RCS" versus the random k-degree
// graph used by traditional greedy approaches (Table VII).
type Table7Row struct {
	Dataset    string
	TopKRecall float64
	RandRecall float64
}

// Table7Result reproduces Table VII.
type Table7Result struct {
	Rows []Table7Row
}

// Table7 measures the recall of the two initialization methods before any
// refinement iteration runs (β = ∞ in Algorithm 1). Paper values: 0.54 to
// 0.82 for the RCS top-k, at most 0.15 for random graphs.
func (h *Harness) Table7() (*Table7Result, error) {
	res := &Table7Result{}
	h.printf("Table VII — impact of initialization method on initial recall\n")
	h.rule()
	h.printf("%-12s %16s %10s\n", "dataset", "top k from RCS", "random")
	for _, p := range dataset.Presets {
		d, err := h.Dataset(p)
		if err != nil {
			return nil, err
		}
		k := h.K(p.DefaultK())
		exact := h.Exact(d, k)

		sets := rcs.Build(d, rcs.BuildOptions{Workers: h.Opts.Workers, NoPivot: true})
		sim := similarity.Cosine{}.Prepare(d).Pair
		topk := initFromRCS(d, sets, sim, k)
		random := randomGraph(d, sim, k, h.Opts.Seed)

		row := Table7Row{
			Dataset:    d.Name,
			TopKRecall: exact.Recall(topk),
			RandRecall: exact.Recall(random),
		}
		res.Rows = append(res.Rows, row)
		h.printf("%-12s %16.2f %10.2f\n", row.Dataset, row.TopKRecall, row.RandRecall)
	}
	h.rule()
	h.printf("(paper: 0.54–0.82 from RCS vs ≤ 0.15 random)\n\n")
	return res, nil
}

// initFromRCS builds the KNN approximation that uses the top k candidates
// of each (complete) RCS, annotated with their true similarities so the
// recall computation can score them.
func initFromRCS(d *dataset.Dataset, sets *rcs.Sets, sim similarity.Func, k int) *knngraph.Graph {
	lists := make([][]knngraph.Neighbor, d.NumUsers())
	for u := range lists {
		list := sets.List(uint32(u))
		if len(list) > k {
			list = list[:k]
		}
		nbs := make([]knngraph.Neighbor, len(list))
		for i, v := range list {
			nbs[i] = knngraph.Neighbor{ID: v, Sim: sim(uint32(u), v)}
		}
		knngraph.SortNeighbors(nbs)
		lists[u] = nbs
	}
	return knngraph.New(k, lists)
}

// randomGraph builds the random k-degree initial graph of traditional
// greedy approaches, annotated with true similarities.
func randomGraph(d *dataset.Dataset, sim similarity.Func, k int, seed int64) *knngraph.Graph {
	n := d.NumUsers()
	rng := rand.New(rand.NewSource(seed))
	lists := make([][]knngraph.Neighbor, n)
	for u := 0; u < n; u++ {
		need := k
		if need > n-1 {
			need = n - 1
		}
		seen := make(map[uint32]bool, need)
		nbs := make([]knngraph.Neighbor, 0, need)
		for len(nbs) < need {
			v := uint32(rng.Intn(n))
			if int(v) == u || seen[v] {
				continue
			}
			seen[v] = true
			nbs = append(nbs, knngraph.Neighbor{ID: v, Sim: sim(uint32(u), v)})
		}
		knngraph.SortNeighbors(nbs)
		lists[u] = nbs
	}
	return knngraph.New(k, lists)
}
