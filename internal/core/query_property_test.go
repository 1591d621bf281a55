package core

import (
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sync"
	"testing"

	"kiff/internal/dataset"
	"kiff/internal/knngraph"
	"kiff/internal/rcs"
	"kiff/internal/similarity"
	"kiff/internal/sparse"
)

// referenceQuery is the query algorithm as a straight-line oracle: count
// shared items in a map, rank every candidate (count desc, ID asc), cut
// to the budget, score each survivor with score, sort everything and
// truncate to k.
func referenceQuery(d *dataset.Dataset, p sparse.Vector, k, budget int, score func(v uint32) float64) []knngraph.Neighbor {
	counts := map[uint32]int32{}
	for _, it := range p.IDs {
		if int(it) < d.NumItems() {
			for _, v := range d.Items[it] {
				counts[v]++
			}
		}
	}
	cands := make([]uint32, 0, len(counts))
	for v := range counts {
		cands = append(cands, v)
	}
	slices.SortFunc(cands, func(a, b uint32) int {
		return rcs.CompareRanked(counts[a], counts[b], a, b)
	})
	if budget >= 0 && len(cands) > budget {
		cands = cands[:budget]
	}
	out := make([]knngraph.Neighbor, 0, len(cands))
	for _, v := range cands {
		out = append(out, knngraph.Neighbor{ID: v, Sim: score(v)})
	}
	knngraph.SortNeighbors(out)
	if len(out) > k {
		out = out[:k]
	}
	return out
}

// externalScore is the pairwise definition of each metric between a
// profile outside the dataset and an indexed user, merged from the two
// profiles; Adamic–Adar weighs shared items by the indexed dataset's
// item degrees.
func externalScore(d *dataset.Dataset, metric string, p sparse.Vector, v uint32) float64 {
	o := d.Users[v]
	common := sparse.CommonCount(p, o)
	switch metric {
	case "cosine":
		np, no := sparse.Norm(p), sparse.Norm(o)
		if np == 0 || no == 0 {
			return 0
		}
		return sparse.Dot(p, o) / (np * no)
	case "jaccard":
		if common == 0 {
			return 0
		}
		return float64(common) / float64(p.Len()+o.Len()-common)
	case "dice":
		if common == 0 {
			return 0
		}
		return 2 * float64(common) / float64(p.Len()+o.Len())
	case "overlap":
		return float64(common)
	case "adamic-adar":
		var s float64
		for _, it := range sparse.Intersect(nil, p, o) {
			if n := len(d.Items[it]); n >= 2 {
				s += 1 / math.Log(float64(n))
			}
		}
		return s
	}
	panic("unknown metric " + metric)
}

// randomProfile draws n distinct items below items, weighted or binary,
// optionally with one ID past the item space.
func randomProfile(r *rand.Rand, items, n int, binary, outOfRange bool) sparse.Vector {
	m := map[uint32]float64{}
	for len(m) < n {
		m[uint32(r.Intn(items))] = float64(1 + r.Intn(5))
	}
	if outOfRange {
		m[uint32(items)+uint32(r.Intn(1<<20))] = 2
	}
	return sparse.FromMap(m, binary)
}

// TestQueryBitIdenticalToReference pins Query, bit for bit, to the
// straight-line oracle: every metric, on a binary (wikipedia) and a
// weighted (gowalla) fixture, for indexed users' own profiles (scored by
// the metric's Prepare) and external binary and weighted profiles, under
// exact, zero, tiny, small and oversized budgets and several k.
func TestQueryBitIdenticalToReference(t *testing.T) {
	wiki, err := dataset.Wikipedia.Generate(0.05, 61)
	if err != nil {
		t.Fatal(err)
	}
	gowalla, err := dataset.Gowalla.Generate(0.003, 62)
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(63))
	for _, fx := range []struct {
		name string
		d    *dataset.Dataset
	}{{"wikipedia", wiki}, {"gowalla", gowalla}} {
		d := fx.d
		d.EnsureItemProfiles()
		type query struct {
			p    sparse.Vector
			user int // indexed user whose profile p is, or -1
		}
		var queries []query
		for _, u := range []int{0, 3, 17, d.NumUsers() - 1} {
			queries = append(queries, query{d.Users[u], u})
		}
		for i := 0; i < 6; i++ {
			n := 1 + r.Intn(40)
			queries = append(queries,
				query{randomProfile(r, d.NumItems(), n, true, i%3 == 0), -1},
				query{randomProfile(r, d.NumItems(), n, false, i%3 == 1), -1})
		}
		for _, name := range similarity.Names() {
			metric, _ := similarity.ByName(name)
			ix := NewIndex(d, metric)
			pair := metric.Prepare(d).Pair
			for qi, q := range queries {
				score := func(v uint32) float64 { return externalScore(d, name, q.p, v) }
				if q.user >= 0 {
					score = func(v uint32) float64 { return pair(uint32(q.user), v) }
				}
				for _, budget := range []int{-1, 0, 1, 7, 1 << 20} {
					for _, k := range []int{1, 5, 20} {
						got, err := ix.Query(q.p, k, budget)
						if err != nil {
							t.Fatal(err)
						}
						want := referenceQuery(d, q.p, k, budget, score)
						if !slices.Equal(got, want) {
							t.Fatalf("%s/%s query %d budget %d k %d:\n got %v\nwant %v",
								fx.name, name, qi, budget, k, got, want)
						}
					}
				}
			}
		}
	}
}

// forceWrap puts the counting epoch on the verge of wrap-around, so the
// next query exercises the hard reset.
func (qs *queryScratch) forceWrap() { qs.epoch = math.MaxUint32 }

// TestQueryCountingEpochWrap: a query that wraps the counting epoch must
// hard-reset the stamps (no stale slot may alias the new epoch) and still
// answer exactly like a fresh scratch.
func TestQueryCountingEpochWrap(t *testing.T) {
	d, err := dataset.Wikipedia.Generate(0.02, 64)
	if err != nil {
		t.Fatal(err)
	}
	ix := NewIndex(d, nil)
	qs := new(queryScratch)
	ix.query(qs, d.Users[1], 10, -1)
	qs.forceWrap()
	p := d.Users[2]
	got := ix.query(qs, p, 10, -1)
	if qs.epoch != 1 {
		t.Fatalf("epoch after wrap = %d, want 1", qs.epoch)
	}
	live := map[uint32]bool{}
	for _, v := range qs.touched {
		live[v] = true
	}
	for v, s := range qs.slots {
		if !live[uint32(v)] && s != (countSlot{}) {
			t.Fatalf("slot %d = %+v survived the hard reset", v, s)
		}
	}
	want := ix.query(new(queryScratch), p, 10, -1)
	if !slices.Equal(got, want) {
		t.Fatalf("after wrap: %v, fresh scratch: %v", got, want)
	}
}

// TestQueryConcurrentSharedPool: eight goroutines query one index and
// several differently sized indexes at once, all drawing scratch from the
// shared pool (run under -race). Every answer must equal the serial one.
func TestQueryConcurrentSharedPool(t *testing.T) {
	var indexes []*Index
	for i, scale := range []float64{0.05, 0.01, 0.03} {
		d, err := dataset.Wikipedia.Generate(scale, int64(70+i))
		if err != nil {
			t.Fatal(err)
		}
		metric := similarity.Metric(similarity.Cosine{})
		if i == 1 {
			metric = similarity.AdamicAdar{}
		}
		indexes = append(indexes, NewIndex(d, metric))
	}
	r := rand.New(rand.NewSource(74))
	type call struct {
		ix     *Index
		p      sparse.Vector
		k, bud int
		want   []knngraph.Neighbor
	}
	var calls []call
	for i := 0; i < 60; i++ {
		ix := indexes[i%len(indexes)]
		c := call{ix: ix, p: randomProfile(r, 2381/20, 1+r.Intn(20), i%2 == 0, i%5 == 0), k: 1 + r.Intn(10), bud: []int{-1, 3, 12}[i%3]}
		want, err := ix.Query(c.p, c.k, c.bud)
		if err != nil {
			t.Fatal(err)
		}
		c.want = want
		calls = append(calls, c)
	}
	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for rep := 0; rep < 20; rep++ {
				for i := range calls {
					c := calls[(i+g*7)%len(calls)]
					got, err := c.ix.Query(c.p, c.k, c.bud)
					if err != nil || !slices.Equal(got, c.want) {
						errs <- "concurrent answer diverged from the serial one"
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Fatal(e)
	}
}

// TestQueryHostileRequestBoundedMemory: an item ID near 1<<31 must not
// size any item-indexed scratch, and k = 1<<30 must not size the result:
// a query costs O(candidates) bytes and allocates only its answer.
func TestQueryHostileRequestBoundedMemory(t *testing.T) {
	d, err := dataset.Gowalla.Generate(0.003, 65)
	if err != nil {
		t.Fatal(err)
	}
	p := sparse.Vector{IDs: []uint32{1, 2, 3, 1 << 31}, Weights: []float64{1, 2, 3, 4}}
	for _, name := range similarity.Names() {
		metric, _ := similarity.ByName(name)
		ix := NewIndex(d, metric)
		query := func() {
			if _, err := ix.Query(p, 1<<30, -1); err != nil {
				t.Fatal(err)
			}
		}
		query() // warm the pool
		if allocs := testing.AllocsPerRun(50, query); allocs > 2 && !raceEnabled {
			t.Errorf("%s: %.1f allocs per query, want ≤ 2", name, allocs)
		}
		const runs = 50
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			query()
		}
		runtime.ReadMemStats(&after)
		if perOp := (after.TotalAlloc - before.TotalAlloc) / runs; perOp > 64<<10 {
			t.Errorf("%s: %d bytes per query, want O(candidates)", name, perOp)
		}
	}
}
