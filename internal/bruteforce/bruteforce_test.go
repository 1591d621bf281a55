package bruteforce

import (
	"math"
	"testing"

	"kiff/internal/dataset"
	"kiff/internal/similarity"
)

func TestExactSelfConsistent(t *testing.T) {
	d, err := dataset.Wikipedia.Generate(0.01, 1)
	if err != nil {
		t.Fatal(err)
	}
	k := 5
	e := Exact(d, similarity.Cosine{}, k, 4)
	if e.NumEvaluated() != d.NumUsers() {
		t.Fatalf("evaluated %d users, want %d", e.NumEvaluated(), d.NumUsers())
	}
	g := Graph(d, similarity.Cosine{}, k, 4)
	if err := g.Validate(); err != nil {
		t.Fatalf("exact graph invalid: %v", err)
	}
	// The exact graph must score a perfect recall against itself.
	if got := e.Recall(g); math.Abs(got-1) > 1e-12 {
		t.Errorf("self recall = %v, want 1", got)
	}
}

func TestExactMatchesNaive(t *testing.T) {
	// Tiny dataset: verify against a hand-rolled O(n²) top-k selection.
	d := dataset.FromProfiles("naive", []map[uint32]float64{
		{0: 1, 1: 1},
		{0: 1, 1: 1},
		{1: 1, 2: 1},
		{3: 1},
		{0: 1, 2: 1},
	}, true)
	k := 2
	sim := similarity.Cosine{}.Prepare(d).Pair
	e := Exact(d, similarity.Cosine{}, k, 1)
	n := d.NumUsers()
	for u := 0; u < n; u++ {
		list := e.Lists[u]
		// Check the list is the true top-k under (sim desc, id asc).
		for _, nb := range list {
			if int(nb.ID) == u {
				t.Fatalf("user %d: self in exact list", u)
			}
			if got := sim(uint32(u), nb.ID); math.Abs(got-nb.Sim) > 1e-12 {
				t.Fatalf("user %d: stored sim %v != %v", u, nb.Sim, got)
			}
		}
		// No non-member may beat a member under the total order.
		if len(list) > 0 {
			worst := list[len(list)-1]
			inList := map[uint32]bool{}
			for _, nb := range list {
				inList[nb.ID] = true
			}
			for v := 0; v < n; v++ {
				if v == u || inList[uint32(v)] {
					continue
				}
				s := sim(uint32(u), uint32(v))
				if s > worst.Sim || (s == worst.Sim && uint32(v) < worst.ID) {
					t.Fatalf("user %d: %d (sim %v) beats worst member %d (sim %v)",
						u, v, s, worst.ID, worst.Sim)
				}
			}
		}
	}
}

func TestExactParallelEqualsSerial(t *testing.T) {
	d, err := dataset.Arxiv.Generate(0.01, 2)
	if err != nil {
		t.Fatal(err)
	}
	k := 10
	a := Exact(d, similarity.Cosine{}, k, 1)
	b := Exact(d, similarity.Cosine{}, k, 8)
	for u := range a.Lists {
		if len(a.Lists[u]) != len(b.Lists[u]) {
			t.Fatalf("user %d: list size differs serial vs parallel", u)
		}
		for i := range a.Lists[u] {
			if a.Lists[u][i] != b.Lists[u][i] {
				t.Fatalf("user %d: exact list differs serial vs parallel", u)
			}
		}
		if a.Thresholds[u] != b.Thresholds[u] {
			t.Fatalf("user %d: threshold differs serial vs parallel", u)
		}
	}
}

func TestSampledSubsetOfExact(t *testing.T) {
	d, err := dataset.Wikipedia.Generate(0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	k := 5
	full := Exact(d, similarity.Cosine{}, k, 4)
	sampled := Sampled(d, similarity.Cosine{}, k, 30, 99, 4)
	if sampled.NumEvaluated() != 30 {
		t.Fatalf("sampled %d users, want 30", sampled.NumEvaluated())
	}
	for i := 0; i < sampled.NumEvaluated(); i++ {
		u := sampled.UserAt(i)
		fl, sl := full.Lists[u], sampled.Lists[i]
		if len(fl) != len(sl) {
			t.Fatalf("user %d: sampled list size %d != full %d", u, len(sl), len(fl))
		}
		for j := range fl {
			if fl[j] != sl[j] {
				t.Fatalf("user %d: sampled ground truth differs from full", u)
			}
		}
	}
}

func TestSampledFallsBackToExact(t *testing.T) {
	d := dataset.FromProfiles("tiny", []map[uint32]float64{
		{0: 1}, {0: 1}, {1: 1},
	}, true)
	e := Sampled(d, similarity.Cosine{}, 1, 10, 1, 1)
	if e.NumEvaluated() != 3 {
		t.Errorf("oversized sample must fall back to full exact, got %d", e.NumEvaluated())
	}
	if e.Users != nil {
		t.Error("full exact must have nil Users")
	}
}

func TestSampledDeterministic(t *testing.T) {
	d, err := dataset.Wikipedia.Generate(0.01, 4)
	if err != nil {
		t.Fatal(err)
	}
	a := Sampled(d, similarity.Cosine{}, 3, 20, 7, 2)
	b := Sampled(d, similarity.Cosine{}, 3, 20, 7, 8)
	for i := range a.Users {
		if a.Users[i] != b.Users[i] {
			t.Fatal("sample selection must be seed-deterministic")
		}
	}
}
