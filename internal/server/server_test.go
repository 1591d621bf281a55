package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"sync"
	"testing"

	"kiff"
	"kiff/internal/shard"
)

// buildCheckpoint constructs a small graph over a synthetic dataset and
// saves both binary files, returning their paths.
func buildCheckpoint(t *testing.T, k int) (gpath, dpath string) {
	t.Helper()
	d, err := kiff.GeneratePreset("wikipedia", 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	res, err := kiff.Build(d, kiff.Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	gpath = filepath.Join(dir, "graph.kfg")
	dpath = filepath.Join(dir, "data.kfd")
	if err := kiff.SaveGraph(gpath, res.Graph); err != nil {
		t.Fatal(err)
	}
	if err := kiff.SaveDataset(dpath, d); err != nil {
		t.Fatal(err)
	}
	return gpath, dpath
}

// onePool wraps m as the one-shard pool a mutable server serves.
func onePool(t testing.TB, m *kiff.Maintainer) *kiff.ShardedMaintainer {
	t.Helper()
	p, err := kiff.OneShardPool(m)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// staticView pins a read-only one-shard View over snap.
func staticView(t testing.TB, snap *kiff.Snapshot) *shard.View {
	t.Helper()
	v, err := shard.NewView([]shard.Reader{snap}, snap.NumUsers())
	if err != nil {
		t.Fatal(err)
	}
	return v
}

func getJSON(t *testing.T, url string, out any) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET %s: %d: %s", url, resp.StatusCode, body)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatal(err)
	}
}

func postJSON(t *testing.T, url string, req any) (int, map[string]any) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, out
}

// TestServerEndToEnd is the tentpole integration test: save a graph,
// map-load the checkpoint, serve it behind the mutable HTTP front-end,
// and hammer it with concurrent readers while mutations stream through
// the writer — under -race in CI. Finally, mapped and heap-loaded
// read-only servers must answer every request identically.
func TestServerEndToEnd(t *testing.T) {
	const k = 8
	gpath, dpath := buildCheckpoint(t, k)

	mg, err := kiff.LoadGraphMapped(gpath)
	if err != nil {
		t.Fatal(err)
	}
	md, err := kiff.LoadDatasetMapped(dpath)
	if err != nil {
		t.Fatal(err)
	}
	defer md.Close()
	m, err := kiff.NewMaintainerFromGraph(md.Dataset(), mg.Graph(), kiff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := mg.Close(); err != nil { // seeding done; the maintainer owns its own state
		t.Fatal(err)
	}

	srv, err := New(Config{Pool: onePool(t, m), QueryBudget: 2 * k, MaxBatch: 8, QueueDepth: 32, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	var health struct {
		Status  string `json:"status"`
		Version uint64 `json:"version"`
		Users   int    `json:"users"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Status != "ok" || health.Version != 1 || health.Users == 0 {
		t.Fatalf("healthz = %+v", health)
	}
	users0 := health.Users

	// Concurrent load: readers walk /neighbors and /query while writers
	// insert users and stream ratings. The race detector owns the
	// correctness half of this test.
	const (
		readers        = 4
		writerInserts  = 12
		writerRatings  = 12
		readsPerWorker = 40
	)
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < readsPerWorker; i++ {
				u := (seed*readsPerWorker + i) % users0
				var nb map[string]any
				getJSON(t, fmt.Sprintf("%s/neighbors/%d", ts.URL, u), &nb)
				status, out := postJSON(t, ts.URL+"/query", map[string]any{
					"profile": map[string]float64{"0": 1, "3": 2, "7": 1},
					"k":       5,
				})
				if status != http.StatusOK {
					t.Errorf("query: %d: %v", status, out)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writerInserts; i++ {
			status, out := postJSON(t, ts.URL+"/users", map[string]any{
				"profile": map[string]float64{"1": 1, "5": 3, fmt.Sprint(10 + i): 2},
			})
			if status != http.StatusCreated {
				t.Errorf("insert: %d: %v", status, out)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writerRatings; i++ {
			status, out := postJSON(t, ts.URL+"/ratings", map[string]any{
				"user": i % users0, "item": (i * 3) % 40, "rating": float64(1 + i%5),
			})
			if status != http.StatusOK {
				t.Errorf("rating: %d: %v", status, out)
				return
			}
		}
	}()
	wg.Wait()

	getJSON(t, ts.URL+"/healthz", &health)
	if health.Users != users0+writerInserts {
		t.Fatalf("after inserts: %d users, want %d", health.Users, users0+writerInserts)
	}
	var stats struct {
		Version  uint64 `json:"version"`
		ReadOnly bool   `json:"read_only"`
		Queries  int64  `json:"queries"`
		Maintain *struct {
			SimEvals     int64 `json:"sim_evals"`
			WallNs       int64 `json:"wall_ns"`
			Inserts      int64 `json:"inserts"`
			Rebuilds     int64 `json:"rebuilds"`
			RebuiltUsers int64 `json:"rebuilt_users"`
		} `json:"maintain"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.ReadOnly || stats.Version < 2 || stats.Queries == 0 || stats.Maintain == nil || stats.Maintain.SimEvals == 0 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats.Maintain.WallNs == 0 {
		t.Fatalf("maintain wall_ns = %+v, want it counted", *stats.Maintain)
	}
	// The maintenance counters must reflect the applied mutations: every
	// insert counted, at least one rebuild pass over at least as many
	// users as passes.
	if stats.Maintain.Inserts != writerInserts {
		t.Fatalf("maintain.inserts = %d, want %d", stats.Maintain.Inserts, writerInserts)
	}
	if stats.Maintain.Rebuilds == 0 || stats.Maintain.RebuiltUsers < stats.Maintain.Rebuilds {
		t.Fatalf("maintain rebuild counters = %+v", stats.Maintain)
	}

	// The maintained graph must still satisfy every structural invariant.
	if err := m.Snapshot().Graph().Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestServerMappedHeapIdentical pins the acceptance criterion: a server
// over the mapped checkpoint and a server over the heap-loaded checkpoint
// return byte-identical bodies for every read endpoint.
func TestServerMappedHeapIdentical(t *testing.T) {
	const k = 8
	gpath, dpath := buildCheckpoint(t, k)

	mg, err := kiff.LoadGraphMapped(gpath)
	if err != nil {
		t.Fatal(err)
	}
	defer mg.Close()
	md, err := kiff.LoadDatasetMapped(dpath)
	if err != nil {
		t.Fatal(err)
	}
	defer md.Close()
	hg, err := kiff.LoadGraph(gpath)
	if err != nil {
		t.Fatal(err)
	}
	hd, err := kiff.LoadDataset(dpath)
	if err != nil {
		t.Fatal(err)
	}

	newStatic := func(g *kiff.Graph, d *kiff.Dataset) *httptest.Server {
		snap, err := kiff.NewSnapshot(g, d, kiff.Options{K: k})
		if err != nil {
			t.Fatal(err)
		}
		srv, err := New(Config{Static: staticView(t, snap), QueryBudget: 2 * k})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { srv.Close() })
		return httptest.NewServer(srv.Handler())
	}
	mts := newStatic(mg.Graph(), md.Dataset())
	defer mts.Close()
	hts := newStatic(hg, hd)
	defer hts.Close()

	fetch := func(ts *httptest.Server, method, path string, body []byte) []byte {
		req, err := http.NewRequest(method, ts.URL+path, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		out, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s %s: %d: %s", method, path, resp.StatusCode, out)
		}
		return out
	}

	for u := 0; u < hg.NumUsers(); u += 7 {
		path := fmt.Sprintf("/neighbors/%d", u)
		a := fetch(mts, http.MethodGet, path, nil)
		b := fetch(hts, http.MethodGet, path, nil)
		if !bytes.Equal(a, b) {
			t.Fatalf("neighbors(%d) differ:\nmapped: %s\nheap:   %s", u, a, b)
		}
	}
	for i := 0; i < 10; i++ {
		q, err := json.Marshal(map[string]any{
			"profile": map[string]float64{fmt.Sprint(i): 1, fmt.Sprint(i + 9): 2},
			"k":       5,
			"want":    "users",
		})
		if err != nil {
			t.Fatal(err)
		}
		a := fetch(mts, http.MethodPost, "/query", q)
		b := fetch(hts, http.MethodPost, "/query", q)
		if !bytes.Equal(a, b) {
			t.Fatalf("query %d differs:\nmapped: %s\nheap:   %s", i, a, b)
		}
	}
}

// TestServerReadOnlyAndErrors covers the failure surface: read-only
// mutation rejection, validation errors, unknown users, and post-Close
// unavailability.
func TestServerReadOnlyAndErrors(t *testing.T) {
	gpath, dpath := buildCheckpoint(t, 8)
	g, err := kiff.LoadGraph(gpath)
	if err != nil {
		t.Fatal(err)
	}
	d, err := kiff.LoadDataset(dpath)
	if err != nil {
		t.Fatal(err)
	}
	snap, err := kiff.NewSnapshot(g, d, kiff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Static: staticView(t, snap)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	if status, _ := postJSON(t, ts.URL+"/users", map[string]any{"profile": map[string]float64{"1": 1}}); status != http.StatusForbidden {
		t.Fatalf("read-only insert: status %d, want 403", status)
	}
	if status, _ := postJSON(t, ts.URL+"/ratings", map[string]any{"user": 0, "item": 1, "rating": 2}); status != http.StatusForbidden {
		t.Fatalf("read-only rating: status %d, want 403", status)
	}

	resp, err := http.Get(ts.URL + "/neighbors/99999999")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown user: status %d, want 404", resp.StatusCode)
	}
	resp, err = http.Get(ts.URL + "/neighbors/not-a-number")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad user id: status %d, want 400", resp.StatusCode)
	}
	if status, _ := postJSON(t, ts.URL+"/query", map[string]any{"profile": map[string]float64{"1": 1}, "want": "nonsense"}); status != http.StatusBadRequest {
		t.Fatalf("bad want: status %d, want 400", status)
	}
	if status, _ := postJSON(t, ts.URL+"/ratings", map[string]any{"ratings": []any{}}); status != http.StatusBadRequest {
		// Batch validation runs before the read-only check.
		t.Fatalf("empty ratings: status %d, want 400", status)
	}

	// Config validation.
	if _, err := New(Config{}); err == nil {
		t.Fatal("Config without source accepted")
	}

	// Mutable server: ratings for an unknown user must surface the
	// maintainer's error as 400, and Close must flip mutations to 503.
	m, err := kiff.NewMaintainerFromGraph(d, g, kiff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	msrv, err := New(Config{Pool: onePool(t, m)})
	if err != nil {
		t.Fatal(err)
	}
	mts := httptest.NewServer(msrv.Handler())
	defer mts.Close()
	if status, out := postJSON(t, mts.URL+"/ratings", map[string]any{"user": 99999999, "item": 0, "rating": 1}); status != http.StatusBadRequest {
		t.Fatalf("out-of-range rating: status %d, body %v", status, out)
	}
	if err := msrv.Close(); err != nil {
		t.Fatal(err)
	}
	if status, _ := postJSON(t, mts.URL+"/users", map[string]any{"profile": map[string]float64{"1": 1}}); status != http.StatusServiceUnavailable {
		t.Fatalf("post-close insert: status %d, want 503", status)
	}
}

// TestServerRatingsValidation: malformed, incomplete and non-finite
// rating requests must be 400s that mutate nothing, and a batch with one
// bad rating must apply none of its ratings (atomicity).
func TestServerRatingsValidation(t *testing.T) {
	gpath, dpath := buildCheckpoint(t, 8)
	g, err := kiff.LoadGraph(gpath)
	if err != nil {
		t.Fatal(err)
	}
	d, err := kiff.LoadDataset(dpath)
	if err != nil {
		t.Fatal(err)
	}
	m, err := kiff.NewMaintainerFromGraph(d, g, kiff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Pool: onePool(t, m)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	version0 := m.Snapshot().Version()
	user5Len := len(m.Snapshot().Dataset().User(5).IDs)

	// An empty object must not silently upsert rating 0 on user 0/item 0.
	if status, out := postJSON(t, ts.URL+"/ratings", map[string]any{}); status != http.StatusBadRequest {
		t.Fatalf("empty rating object: status %d, body %v", status, out)
	}
	// Missing fields in the single form.
	if status, _ := postJSON(t, ts.URL+"/ratings", map[string]any{"user": 1, "item": 2}); status != http.StatusBadRequest {
		t.Fatalf("missing rating field accepted")
	}
	// Non-finite ratings.
	if status, _ := postJSON(t, ts.URL+"/users", map[string]any{"profile": map[string]string{"1": "x"}}); status != http.StatusBadRequest {
		t.Fatalf("non-numeric profile accepted")
	}
	body := []byte(`{"user":1,"item":2,"rating":1e999}`) // parses as +Inf rejection via json error or our check
	resp, err := http.Post(ts.URL+"/ratings", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("infinite rating: status %d, want 400", resp.StatusCode)
	}

	// A batch with one out-of-range user applies none of its ratings.
	if status, _ := postJSON(t, ts.URL+"/ratings", map[string]any{"ratings": []map[string]any{
		{"user": 5, "item": 3, "rating": 4},
		{"user": 99999999, "item": 1, "rating": 2},
	}}); status != http.StatusBadRequest {
		t.Fatalf("bad batch accepted")
	}
	snap := m.Snapshot()
	if snap.Version() != version0 {
		t.Fatalf("rejected requests published a snapshot: version %d -> %d", version0, snap.Version())
	}
	if got := len(snap.Dataset().User(5).IDs); got != user5Len {
		t.Fatalf("rejected batch mutated user 5: %d -> %d profile entries", user5Len, got)
	}
}

// TestServerEmptyRatingsBatch: an explicitly empty batch is a client
// error on a mutable server.
func TestServerEmptyRatingsBatch(t *testing.T) {
	gpath, dpath := buildCheckpoint(t, 8)
	g, err := kiff.LoadGraph(gpath)
	if err != nil {
		t.Fatal(err)
	}
	d, err := kiff.LoadDataset(dpath)
	if err != nil {
		t.Fatal(err)
	}
	m, err := kiff.NewMaintainerFromGraph(d, g, kiff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Pool: onePool(t, m)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	if status, _ := postJSON(t, ts.URL+"/ratings", map[string]any{"ratings": []any{}}); status != http.StatusBadRequest {
		t.Fatalf("empty ratings: status %d, want 400", status)
	}
}

// TestServerShardedPool serves a ShardedMaintainer pool behind the same
// API: concurrent reads and mutations stream through while /stats
// reports per-shard counters, and — the acceptance pin — /query answers
// must be identical to an unsharded server over the same dataset.
func TestServerShardedPool(t *testing.T) {
	const k = 8
	d, err := kiff.GeneratePreset("wikipedia", 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	single, err := kiff.NewMaintainer(d, kiff.Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	pool, err := kiff.NewShardedMaintainer(d, 4, kiff.Options{K: k})
	if err != nil {
		t.Fatal(err)
	}

	ssrv, err := New(Config{Pool: onePool(t, single)})
	if err != nil {
		t.Fatal(err)
	}
	sts := httptest.NewServer(ssrv.Handler())
	defer sts.Close()
	defer ssrv.Close()

	srv, err := New(Config{Pool: pool, MaxBatch: 8, QueueDepth: 32, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	defer srv.Close()

	var health struct {
		Status string `json:"status"`
		Users  int    `json:"users"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Status != "ok" || health.Users != d.NumUsers() {
		t.Fatalf("healthz = %+v, want %d users", health, d.NumUsers())
	}
	users0 := health.Users

	// Pinned equality at the HTTP layer: the sharded and unsharded
	// servers must answer /query with byte-identical result lists
	// (exact queries; the server maps budget ≤ 0 to exhaustive).
	for i := 0; i < 10; i++ {
		q := map[string]any{
			"profile": map[string]float64{fmt.Sprint(i): 2, fmt.Sprint(3 * i): 1, "7": 1},
			"k":       5,
		}
		st1, want := postJSON(t, sts.URL+"/query", q)
		st2, got := postJSON(t, ts.URL+"/query", q)
		if st1 != http.StatusOK || st2 != http.StatusOK {
			t.Fatalf("query %d: statuses %d/%d", i, st1, st2)
		}
		if fmt.Sprint(got["results"]) != fmt.Sprint(want["results"]) {
			t.Fatalf("query %d diverged\n sharded: %v\n single:  %v", i, got["results"], want["results"])
		}
	}

	// Concurrent load against the pool-backed server.
	const (
		readers        = 4
		writerInserts  = 12
		writerRatings  = 12
		readsPerWorker = 25
	)
	var wg sync.WaitGroup
	for w := 0; w < readers; w++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			for i := 0; i < readsPerWorker; i++ {
				u := (seed*readsPerWorker + i) % users0
				var nb map[string]any
				getJSON(t, fmt.Sprintf("%s/neighbors/%d", ts.URL, u), &nb)
				status, out := postJSON(t, ts.URL+"/query", map[string]any{
					"profile": map[string]float64{"0": 1, "3": 2, "7": 1},
					"k":       5,
				})
				if status != http.StatusOK {
					t.Errorf("query: %d: %v", status, out)
					return
				}
			}
		}(w)
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writerInserts; i++ {
			status, out := postJSON(t, ts.URL+"/users", map[string]any{
				"profile": map[string]float64{"1": 1, "5": 3, fmt.Sprint(10 + i): 2},
			})
			if status != http.StatusCreated {
				t.Errorf("insert: %d: %v", status, out)
				return
			}
		}
	}()
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < writerRatings; i++ {
			status, out := postJSON(t, ts.URL+"/ratings", map[string]any{
				"user": i % users0, "item": (i * 3) % 40, "rating": float64(1 + i%5),
			})
			if status != http.StatusOK {
				t.Errorf("rating: %d: %v", status, out)
				return
			}
		}
	}()
	wg.Wait()

	getJSON(t, ts.URL+"/healthz", &health)
	if health.Users != users0+writerInserts {
		t.Fatalf("after inserts: %d users, want %d", health.Users, users0+writerInserts)
	}
	var stats struct {
		ReadOnly bool `json:"read_only"`
		Shards   []struct {
			Shard    int    `json:"shard"`
			Users    int    `json:"users"`
			Version  uint64 `json:"version"`
			SimEvals int64  `json:"sim_evals"`
			Inserts  int64  `json:"inserts"`
		} `json:"shards"`
		Maintain *struct {
			SimEvals     int64 `json:"sim_evals"`
			Inserts      int64 `json:"inserts"`
			Rebuilds     int64 `json:"rebuilds"`
			RebuiltUsers int64 `json:"rebuilt_users"`
		} `json:"maintain"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if stats.ReadOnly {
		t.Fatal("pool server reported read-only")
	}
	if len(stats.Shards) != 4 {
		t.Fatalf("/stats shards = %d entries, want 4", len(stats.Shards))
	}
	shardUsers, shardInserts := 0, int64(0)
	for i, sh := range stats.Shards {
		if sh.Shard != i || sh.Version == 0 {
			t.Fatalf("shard row %d = %+v", i, sh)
		}
		shardUsers += sh.Users
		shardInserts += sh.Inserts
	}
	if shardUsers != users0+writerInserts {
		t.Fatalf("per-shard users sum to %d, want %d", shardUsers, users0+writerInserts)
	}
	if shardInserts != writerInserts {
		t.Fatalf("per-shard inserts sum to %d, want %d", shardInserts, writerInserts)
	}
	if stats.Maintain == nil || stats.Maintain.Inserts != writerInserts || stats.Maintain.SimEvals == 0 {
		t.Fatalf("maintain = %+v", stats.Maintain)
	}
	if stats.Maintain.Rebuilds == 0 || stats.Maintain.RebuiltUsers < stats.Maintain.Rebuilds {
		t.Fatalf("maintain rebuild counters = %+v", stats.Maintain)
	}
}

// TestServerConfigExclusive: the two serving sources are mutually
// exclusive.
func TestServerConfigExclusive(t *testing.T) {
	d, err := kiff.GeneratePreset("wikipedia", 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := kiff.NewShardedMaintainer(d, 2, kiff.Options{K: 4})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Config{Pool: pool, Static: pool.View()}); err == nil {
		t.Error("Pool+Static must be rejected")
	}
	if _, err := New(Config{}); err == nil {
		t.Error("empty config must be rejected")
	}
}
