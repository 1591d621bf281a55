package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"kiff"
)

// newMaintainerServer builds a mutable server (plus httptest front-end)
// over a fresh checkpoint, with the given extras applied to the config.
func newMaintainerServer(t *testing.T, mutate func(*Config)) (*Server, *httptest.Server, *kiff.Maintainer) {
	t.Helper()
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
	cfg := Config{Pool: onePool(t, m), Logf: t.Logf}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { srv.Close() })
	return srv, ts, m
}

// rawBody fetches one endpoint and returns status + body bytes.
func rawBody(t *testing.T, method, url string, body []byte) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
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
	return resp.StatusCode, out
}

// jsonField extracts one top-level field of a JSON body as raw bytes —
// the comparison unit for restart equivalence, where whole bodies
// differ by snapshot version but the answer payload must not.
func jsonField(t *testing.T, body []byte, field string) string {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(body, &m); err != nil {
		t.Fatalf("unmarshal %q from %s: %v", field, body, err)
	}
	raw, ok := m[field]
	if !ok {
		t.Fatalf("body has no %q field: %s", field, body)
	}
	return string(raw)
}

// TestServerErrorPaths pins the documented status codes of the failure
// surface: malformed JSON and wrong methods and oversized bodies and
// read-only mutations each map to their own status.
func TestServerErrorPaths(t *testing.T) {
	_, ts, _ := newMaintainerServer(t, nil)

	// Malformed JSON bodies: 400 on every decoding endpoint.
	for _, path := range []string{"/query", "/users", "/ratings"} {
		if status, body := rawBody(t, http.MethodPost, ts.URL+path, []byte(`{"profile":`)); status != http.StatusBadRequest {
			t.Errorf("POST %s with truncated JSON: status %d, want 400 (%s)", path, status, body)
		}
		if status, _ := rawBody(t, http.MethodPost, ts.URL+path, []byte(`{"no_such_field":1}`)); status != http.StatusBadRequest {
			t.Errorf("POST %s with unknown field: status %d, want 400", path, status)
		}
	}

	// Wrong methods: the mux's method-qualified patterns answer 405.
	for _, c := range []struct{ method, path string }{
		{http.MethodGet, "/query"},
		{http.MethodGet, "/users"},
		{http.MethodGet, "/ratings"},
		{http.MethodPost, "/neighbors/0"},
		{http.MethodPost, "/healthz"},
		{http.MethodDelete, "/stats"},
	} {
		if status, _ := rawBody(t, c.method, ts.URL+c.path, nil); status != http.StatusMethodNotAllowed {
			t.Errorf("%s %s: status %d, want 405", c.method, c.path, status)
		}
	}

	// Oversized bodies: MaxBytesReader trips mid-decode, reported as 413.
	huge := append([]byte(`{"profile":{"1":`), bytes.Repeat([]byte("1"), maxBodyBytes+1024)...)
	huge = append(huge, []byte(`}}`)...)
	for _, path := range []string{"/query", "/users", "/ratings"} {
		if status, _ := rawBody(t, http.MethodPost, ts.URL+path, huge); status != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s with %dMB body: status %d, want 413", path, len(huge)>>20, status)
		}
	}

	// Read-only mutations: 403 on every mutation endpoint, including the
	// checkpoint trigger when it is routed.
	gpath, dpath := buildCheckpoint(t, 8)
	g, _ := kiff.LoadGraph(gpath)
	d, _ := kiff.LoadDataset(dpath)
	snap, err := kiff.NewSnapshot(g, d, kiff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	rsrv, err := New(Config{Static: staticView(t, snap), CheckpointDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer rsrv.Close()
	rts := httptest.NewServer(rsrv.Handler())
	defer rts.Close()
	for path, body := range map[string][]byte{
		"/users":      []byte(`{"profile":{"1":1}}`),
		"/ratings":    []byte(`{"user":0,"item":1,"rating":2}`),
		"/checkpoint": nil,
	} {
		if status, _ := rawBody(t, http.MethodPost, rts.URL+path, body); status != http.StatusForbidden {
			t.Errorf("read-only POST %s: status %d, want 403", path, status)
		}
	}
}

// TestServerCloseFlushesQueue is the graceful-shutdown regression test:
// mutations accepted into the queue before Close must be applied,
// acknowledged with success, and present in a checkpoint taken after
// Close — not failed with ErrClosed as they were before the flush.
func TestServerCloseFlushesQueue(t *testing.T) {
	const pending = 8
	faults := &Faults{}
	ckptDir := t.TempDir()
	srv, ts, m := newMaintainerServer(t, func(cfg *Config) {
		cfg.Faults = faults
		cfg.QueueDepth = pending + 4
		cfg.CheckpointDir = ckptDir
	})
	users0 := m.Dataset().NumUsers()

	// Freeze the writer so the inserts pile up in the queue instead of
	// being applied as they arrive.
	faults.SetHold(true)
	var wg sync.WaitGroup
	statuses := make([]int, pending)
	for i := 0; i < pending; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			statuses[i], _ = postJSON(t, ts.URL+"/users", map[string]any{
				"profile": map[string]float64{"1": 1, fmt.Sprint(10 + i): 2},
			})
		}(i)
	}
	// Wait until every insert is parked in the queue (the writer holds
	// one op in hand; the rest sit in the channel).
	deadline := time.Now().Add(5 * time.Second)
	for {
		var health struct {
			QueueDepth int `json:"queue_depth"`
		}
		getJSON(t, ts.URL+"/healthz", &health)
		if health.QueueDepth >= pending-1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("inserts never queued: depth %d", health.QueueDepth)
		}
		time.Sleep(time.Millisecond)
	}

	// Close with the hold still set: the flush must override it, apply
	// everything, and answer every handler with success.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	for i, status := range statuses {
		if status != http.StatusCreated {
			t.Fatalf("insert %d queued before Close: status %d, want 201", i, status)
		}
	}
	if got := m.Dataset().NumUsers(); got != users0+pending {
		t.Fatalf("after flush: %d users, want %d", got, users0+pending)
	}

	// The post-Close checkpoint carries the flushed mutations.
	final := filepath.Join(ckptDir, "final")
	if err := srv.SaveFinal(final); err != nil {
		t.Fatal(err)
	}
	p2, err := kiff.LoadShardedMaintainer(final, kiff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if p2.NumUsers() != users0+pending {
		t.Fatalf("final checkpoint has %d users, want %d", p2.NumUsers(), users0+pending)
	}

	// New mutations after Close still fail cleanly.
	if status, _ := postJSON(t, ts.URL+"/users", map[string]any{"profile": map[string]float64{"1": 1}}); status != http.StatusServiceUnavailable {
		t.Fatalf("post-close insert: status %d, want 503", status)
	}
}

// TestServerSaveFinalRequiresClose: checkpointing around the live writer
// is refused — the writer owns the state until Close.
func TestServerSaveFinalRequiresClose(t *testing.T) {
	srv, _, _ := newMaintainerServer(t, func(cfg *Config) { cfg.CheckpointDir = t.TempDir() })
	if err := srv.SaveFinal(t.TempDir()); err == nil {
		t.Fatal("SaveFinal on a live server must fail")
	}
}

// TestServerHealthzDegraded: /healthz's readiness facet flips to
// "degraded" while the mutation queue is saturated and recovers to "ok"
// once the writer drains it; reads keep answering 200 throughout.
func TestServerHealthzDegraded(t *testing.T) {
	faults := &Faults{}
	_, ts, _ := newMaintainerServer(t, func(cfg *Config) {
		cfg.Faults = faults
		cfg.QueueDepth = 2
	})

	var health struct {
		Status string `json:"status"`
		Ready  string `json:"ready"`
	}
	getJSON(t, ts.URL+"/healthz", &health)
	if health.Status != "ok" || health.Ready != "ok" {
		t.Fatalf("idle healthz = %+v", health)
	}

	// Hold the writer and overfill the queue: capacity 2, one op held in
	// the writer's hand, so 4 concurrent inserts guarantee saturation.
	faults.SetHold(true)
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			postJSON(t, ts.URL+"/users", map[string]any{
				"profile": map[string]float64{fmt.Sprint(i + 1): 1},
			})
		}(i)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		getJSON(t, ts.URL+"/healthz", &health)
		if health.Ready == "degraded" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never reported degraded under a held writer")
		}
		time.Sleep(time.Millisecond)
	}
	if health.Status != "ok" {
		t.Fatalf("liveness flipped during backpressure: %+v", health)
	}
	// Reads stay healthy while writes are backed up.
	if status, _ := rawBody(t, http.MethodGet, ts.URL+"/neighbors/0", nil); status != http.StatusOK {
		t.Fatalf("read during backpressure: status %d", status)
	}

	// Release the hold: the writer drains and readiness recovers.
	faults.SetHold(false)
	wg.Wait()
	deadline = time.Now().Add(5 * time.Second)
	for {
		getJSON(t, ts.URL+"/healthz", &health)
		if health.Ready == "ok" {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("healthz never recovered after releasing the hold")
		}
		time.Sleep(time.Millisecond)
	}
}

// TestServerFaultsEndpoint: the knobs round-trip over HTTP, bad values
// are rejected, and an unconfigured server has no /faults route at all.
func TestServerFaultsEndpoint(t *testing.T) {
	faults := &Faults{}
	_, ts, _ := newMaintainerServer(t, func(cfg *Config) { cfg.Faults = faults })

	status, out := postJSON(t, ts.URL+"/faults", map[string]any{
		"hold": false, "batch_delay_ms": 7, "publish_stall_ms": 3,
	})
	if status != http.StatusOK {
		t.Fatalf("POST /faults: %d: %v", status, out)
	}
	if got := faults.BatchDelay(); got != 7*time.Millisecond {
		t.Fatalf("batch delay = %v, want 7ms", got)
	}
	if got := faults.PublishStall(); got != 3*time.Millisecond {
		t.Fatalf("publish stall = %v, want 3ms", got)
	}
	var state struct {
		Hold           *bool  `json:"hold"`
		BatchDelayMs   *int64 `json:"batch_delay_ms"`
		PublishStallMs *int64 `json:"publish_stall_ms"`
	}
	getJSON(t, ts.URL+"/faults", &state)
	if state.Hold == nil || *state.Hold || state.BatchDelayMs == nil || *state.BatchDelayMs != 7 ||
		state.PublishStallMs == nil || *state.PublishStallMs != 3 {
		t.Fatalf("GET /faults = %+v", state)
	}
	if status, _ := postJSON(t, ts.URL+"/faults", map[string]any{"batch_delay_ms": -1}); status != http.StatusBadRequest {
		t.Fatalf("negative delay accepted: %d", status)
	}

	// A delayed batch still applies correctly end to end.
	if status, _ = postJSON(t, ts.URL+"/users", map[string]any{"profile": map[string]float64{"1": 1}}); status != http.StatusCreated {
		t.Fatalf("insert under batch delay: %d", status)
	}

	// No Faults in the config → no route.
	_, plain, _ := newMaintainerServer(t, nil)
	if status, _ := rawBody(t, http.MethodGet, plain.URL+"/faults", nil); status != http.StatusNotFound {
		t.Fatalf("unconfigured /faults: status %d, want 404", status)
	}
}

// TestServerCheckpointEndpoint: POST /checkpoint on a one-shard server
// writes a loadable checkpoint whose restarted server answers /query and
// /neighbors identically (modulo snapshot version).
func TestServerCheckpointEndpoint(t *testing.T) {
	ckptDir := t.TempDir()
	_, ts, m := newMaintainerServer(t, func(cfg *Config) { cfg.CheckpointDir = ckptDir })

	for i := 0; i < 6; i++ {
		if status, out := postJSON(t, ts.URL+"/users", map[string]any{
			"profile": map[string]float64{"2": 1, fmt.Sprint(5 + i): 3},
		}); status != http.StatusCreated {
			t.Fatalf("insert %d: %d: %v", i, status, out)
		}
	}
	if status, out := postJSON(t, ts.URL+"/ratings", map[string]any{"user": 3, "item": 9, "rating": 4}); status != http.StatusOK {
		t.Fatalf("rating: %d: %v", status, out)
	}

	status, out := postJSON(t, ts.URL+"/checkpoint", nil)
	if status != http.StatusOK {
		t.Fatalf("POST /checkpoint: %d: %v", status, out)
	}
	dir, _ := out["dir"].(string)
	if dir == "" {
		t.Fatalf("checkpoint reply carries no dir: %v", out)
	}
	if filepath.Dir(dir) != ckptDir {
		t.Fatalf("checkpoint dir %q outside configured %q", dir, ckptDir)
	}
	// No stray temp files: every file was renamed into place.
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) == ".tmp" {
			t.Fatalf("checkpoint left temp file %s", e.Name())
		}
	}

	p2, err := kiff.LoadShardedMaintainer(dir, kiff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := New(Config{Pool: p2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	if got, want := p2.NumUsers(), m.Dataset().NumUsers(); got != want {
		t.Fatalf("restarted users = %d, want %d", got, want)
	}
	for i := 0; i < 10; i++ {
		q, _ := json.Marshal(map[string]any{
			"profile": map[string]float64{fmt.Sprint(i): 2, "7": 1}, "k": 5,
		})
		_, a := rawBody(t, http.MethodPost, ts.URL+"/query", q)
		_, b := rawBody(t, http.MethodPost, ts2.URL+"/query", q)
		if got, want := jsonField(t, b, "results"), jsonField(t, a, "results"); got != want {
			t.Fatalf("query %d diverged after restart:\n pre:  %s\n post: %s", i, want, got)
		}
	}
	for u := 0; u < m.Dataset().NumUsers(); u += 13 {
		path := fmt.Sprintf("/neighbors/%d", u)
		_, a := rawBody(t, http.MethodGet, ts.URL+path, nil)
		_, b := rawBody(t, http.MethodGet, ts2.URL+path, nil)
		if got, want := jsonField(t, b, "neighbors"), jsonField(t, a, "neighbors"); got != want {
			t.Fatalf("neighbors(%d) diverged after restart:\n pre:  %s\n post: %s", u, want, got)
		}
	}
}

// TestServerPoolSaveRestartIdentical promotes the CI curl smoke into a
// real test: a sharded pool mutated over HTTP, checkpointed via POST
// /checkpoint (Pool.Save), and reloaded with LoadShardedMaintainer must
// answer /query byte-identically to the pre-restart server.
func TestServerPoolSaveRestartIdentical(t *testing.T) {
	const k = 8
	d, err := kiff.GeneratePreset("wikipedia", 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	pool, err := kiff.NewShardedMaintainer(d, 4, kiff.Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	ckptDir := t.TempDir()
	srv, err := New(Config{Pool: pool, CheckpointDir: ckptDir, Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	// Mutate through the API so the checkpoint is not just the cold
	// build: inserts spread across shards plus a rating rebuild.
	for i := 0; i < 9; i++ {
		if status, out := postJSON(t, ts.URL+"/users", map[string]any{
			"profile": map[string]float64{"1": 1, fmt.Sprint(4 + i): 2},
		}); status != http.StatusCreated {
			t.Fatalf("insert %d: %d: %v", i, status, out)
		}
	}
	if status, out := postJSON(t, ts.URL+"/ratings", map[string]any{"user": 2, "item": 11, "rating": 5}); status != http.StatusOK {
		t.Fatalf("rating: %d: %v", status, out)
	}

	status, out := postJSON(t, ts.URL+"/checkpoint", nil)
	if status != http.StatusOK {
		t.Fatalf("POST /checkpoint: %d: %v", status, out)
	}
	dir, _ := out["dir"].(string)

	pool2, err := kiff.LoadShardedMaintainer(dir, kiff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	srv2, err := New(Config{Pool: pool2})
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	ts2 := httptest.NewServer(srv2.Handler())
	defer ts2.Close()

	if got, want := pool2.NumUsers(), pool.NumUsers(); got != want {
		t.Fatalf("restarted pool users = %d, want %d", got, want)
	}
	for i := 0; i < 15; i++ {
		q, _ := json.Marshal(map[string]any{
			"profile": map[string]float64{fmt.Sprint(i): 2, fmt.Sprint(3 * i): 1, "7": 1},
			"k":       5,
		})
		st1, a := rawBody(t, http.MethodPost, ts.URL+"/query", q)
		st2, b := rawBody(t, http.MethodPost, ts2.URL+"/query", q)
		if st1 != http.StatusOK || st2 != http.StatusOK {
			t.Fatalf("query %d: statuses %d/%d", i, st1, st2)
		}
		if got, want := jsonField(t, b, "results"), jsonField(t, a, "results"); got != want {
			t.Fatalf("query %d diverged after pool restart:\n pre:  %s\n post: %s", i, want, got)
		}
	}
}
