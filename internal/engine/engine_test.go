package engine_test

import (
	"math"
	"testing"

	"kiff/internal/bruteforce"
	"kiff/internal/core"
	"kiff/internal/dataset"
	"kiff/internal/engine"
	"kiff/internal/similarity"

	_ "kiff/internal/bucket"
	_ "kiff/internal/hyrec"
	_ "kiff/internal/nndescent"
)

func TestRegistryListsAllBuilders(t *testing.T) {
	want := []string{"brute-force", "bucketed", "hyrec", "kiff", "nn-descent"}
	got := engine.Names()
	if len(got) != len(want) {
		t.Fatalf("Names() = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Names() = %v, want %v (sorted)", got, want)
		}
	}
	for _, name := range want {
		b, err := engine.Lookup(name)
		if err != nil {
			t.Fatalf("Lookup(%q): %v", name, err)
		}
		if b.Name() != name {
			t.Errorf("Lookup(%q).Name() = %q", name, b.Name())
		}
	}
}

// stubBuilder exists to probe the registry's error paths.
type stubBuilder struct{ name string }

func (b stubBuilder) Name() string                  { return b.name }
func (stubBuilder) Normalize(*engine.Options) error { return nil }
func (stubBuilder) Refine(*engine.Session) error    { return nil }

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s must panic", what)
		}
	}()
	fn()
}

// TestRegisterRejectsDuplicateAndEmpty pins the registry's programming-
// error paths: a second builder under an already-registered name and a
// builder with an empty name both panic at init time instead of silently
// shadowing (or hiding) an algorithm.
func TestRegisterRejectsDuplicateAndEmpty(t *testing.T) {
	mustPanic(t, "duplicate registration", func() {
		engine.Register(stubBuilder{name: "kiff"})
	})
	mustPanic(t, "empty-name registration", func() {
		engine.Register(stubBuilder{name: ""})
	})
	// The failed registrations must not have disturbed the registry.
	if b, err := engine.Lookup("kiff"); err != nil || b.Name() != "kiff" {
		t.Errorf("registry corrupted by rejected registration: %v, %v", b, err)
	}
}

func TestLookupUnknown(t *testing.T) {
	if _, err := engine.Lookup("simulated-annealing"); err == nil {
		t.Error("unknown algorithm must be rejected")
	}
	if _, err := engine.Build("simulated-annealing", mustToy(t), engine.Options{K: 1}); err == nil {
		t.Error("Build with unknown algorithm must fail")
	}
}

func mustToy(t *testing.T) *dataset.Dataset {
	t.Helper()
	d, _, _ := dataset.Toy()
	return d
}

func TestSharedNormalization(t *testing.T) {
	d := mustToy(t)
	bads := []engine.Options{
		{K: 0},
		{K: 2, MaxIterations: -1},
		{K: 2, Beta: math.NaN()},
		{K: 2, Delta: math.NaN()},
		{K: 2, MinRating: -1},
	}
	for i, o := range bads {
		if _, err := engine.Build("kiff", d, o); err == nil {
			t.Errorf("case %d: Build accepted invalid options %+v", i, o)
		}
	}
}

// TestEveryBuilderProducesInstrumentedRun exercises the full pipeline for
// each registered builder on a small generated dataset and checks the
// shared finalization: a valid graph plus a populated cost record.
func TestEveryBuilderProducesInstrumentedRun(t *testing.T) {
	d, err := dataset.Wikipedia.Generate(0.01, 21)
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range engine.Names() {
		res, err := engine.Build(name, d, engine.Options{K: 5, Seed: 7})
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if err := res.Graph.Validate(); err != nil {
			t.Fatalf("%s: invalid graph: %v", name, err)
		}
		if res.Run.Algorithm != name {
			t.Errorf("%s: Run.Algorithm = %q", name, res.Run.Algorithm)
		}
		if res.Run.NumUsers != d.NumUsers() || res.Run.K != 5 {
			t.Errorf("%s: Run shape = %d users k=%d", name, res.Run.NumUsers, res.Run.K)
		}
		if res.Run.SimEvals <= 0 {
			t.Errorf("%s: SimEvals not counted", name)
		}
		if res.Run.WallTime <= 0 {
			t.Errorf("%s: WallTime missing", name)
		}
		if name != "brute-force" && res.Run.Iterations < 1 {
			t.Errorf("%s: no iterations traced", name)
		}
	}
}

// TestEngineMatchesDirectBuild pins the refactor: core.Build (the Config
// adapter) and a direct engine.Build with equivalent options must produce
// the identical graph.
func TestEngineMatchesDirectBuild(t *testing.T) {
	d, err := dataset.Wikipedia.Generate(0.01, 22)
	if err != nil {
		t.Fatal(err)
	}
	viaConfig, err := core.Build(d, core.Config{K: 6, Gamma: -1, Beta: -1})
	if err != nil {
		t.Fatal(err)
	}
	viaEngine, err := engine.Build("kiff", d, engine.Options{K: 6, Gamma: -1, Beta: -1})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < viaConfig.Graph.NumUsers(); u++ {
		a, b := viaConfig.Graph.Neighbors(uint32(u)), viaEngine.Graph.Neighbors(uint32(u))
		if len(a) != len(b) {
			t.Fatalf("user %d: neighbor counts differ", u)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("user %d: neighbors differ at %d: %v vs %v", u, i, a[i], b[i])
			}
		}
	}
	if viaConfig.RCS.TotalCandidates != viaEngine.RCS.TotalCandidates {
		t.Errorf("RCS stats differ: %d vs %d",
			viaConfig.RCS.TotalCandidates, viaEngine.RCS.TotalCandidates)
	}
}

// TestBruteForceBuilderMatchesExact pins the registered brute-force
// builder to the package's standalone Graph function.
func TestBruteForceBuilderMatchesExact(t *testing.T) {
	d, err := dataset.Arxiv.Generate(0.005, 23)
	if err != nil {
		t.Fatal(err)
	}
	k := 4
	res, err := engine.Build("brute-force", d, engine.Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	direct := bruteforce.Graph(d, similarity.Cosine{}, k, 0)
	for u := 0; u < direct.NumUsers(); u++ {
		a, b := direct.Neighbors(uint32(u)), res.Graph.Neighbors(uint32(u))
		if len(a) != len(b) {
			t.Fatalf("user %d: neighbor counts differ", u)
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("user %d: neighbors differ", u)
			}
		}
	}
	n := int64(d.NumUsers())
	if want := n * (n - 1) / 2; res.Run.SimEvals != want {
		t.Errorf("SimEvals = %d, want every pair once (%d)", res.Run.SimEvals, want)
	}
}

// TestBaselinesRejectUnboundedNegativeThresholds covers the coherence
// rule: algorithms without an exhaustion point cannot run with their
// termination threshold disabled unless an iteration cap bounds them.
func TestBaselinesRejectUnboundedNegativeThresholds(t *testing.T) {
	d := mustToy(t)
	if _, err := engine.Build("hyrec", d, engine.Options{K: 1, Beta: -1}); err == nil {
		t.Error("hyrec must reject Beta < 0 without MaxIterations")
	}
	if _, err := engine.Build("hyrec", d, engine.Options{K: 1, Beta: -1, MaxIterations: 2}); err != nil {
		t.Errorf("hyrec with Beta < 0 and MaxIterations must run: %v", err)
	}
	if _, err := engine.Build("nn-descent", d, engine.Options{K: 1, Delta: -1}); err == nil {
		t.Error("nn-descent must reject Delta < 0 without MaxIterations")
	}
	if _, err := engine.Build("nn-descent", d, engine.Options{K: 1, Delta: -1, MaxIterations: 2}); err != nil {
		t.Errorf("nn-descent with Delta < 0 and MaxIterations must run: %v", err)
	}
}
