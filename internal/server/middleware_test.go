package server

import (
	"bufio"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"kiff"
)

// newTestMaintainer builds a small maintained graph over the synthetic
// preset — the mutable backend for middleware tests.
func newTestMaintainer(t *testing.T, k int) *kiff.Maintainer {
	t.Helper()
	d, err := kiff.GeneratePreset("wikipedia", 0.02, 7)
	if err != nil {
		t.Fatal(err)
	}
	m, err := kiff.NewMaintainer(d, kiff.Options{K: k})
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// doKeyed issues a request with an API key in the given header slot
// ("bearer", "x-api-key", or "" for none) and returns the response.
func doKeyed(t *testing.T, method, url, key, slot string, body string) *http.Response {
	t.Helper()
	var rd *strings.Reader
	if body != "" {
		rd = strings.NewReader(body)
	} else {
		rd = strings.NewReader("")
	}
	req, err := http.NewRequest(method, url, rd)
	if err != nil {
		t.Fatal(err)
	}
	switch slot {
	case "bearer":
		req.Header.Set("Authorization", "Bearer "+key)
	case "x-api-key":
		req.Header.Set("X-API-Key", key)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestParseAPIKeys(t *testing.T) {
	keys, err := ParseAPIKeys([]byte(`
# comment, then a blank line

read:reader-secret
write:writer-secret
read:tight-secret:5:0.5
write:burst-secret:100
`))
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) != 4 {
		t.Fatalf("parsed %d keys, want 4", len(keys))
	}
	if keys[0].Scope() != ScopeRead || keys[1].Scope() != ScopeWrite {
		t.Fatalf("scopes: %v, %v", keys[0].Scope(), keys[1].Scope())
	}
	if keys[2].burst == nil || *keys[2].burst != 5 || keys[2].rps == nil || *keys[2].rps != 0.5 {
		t.Fatalf("overrides not parsed: %+v", keys[2])
	}
	if keys[3].burst == nil || *keys[3].burst != 100 || keys[3].rps != nil {
		t.Fatalf("burst-only override not parsed: %+v", keys[3])
	}
	if keys[0].ID() == "" || keys[0].ID() == keys[1].ID() {
		t.Fatalf("key IDs not distinct: %q vs %q", keys[0].ID(), keys[1].ID())
	}

	for _, bad := range []string{
		"",                         // no keys at all
		"admin:key",                // unknown scope
		"read:",                    // empty key
		"read:key:0",               // burst < 1
		"read:key:5:-1",            // negative rate
		"read:key:5:0.5:extra",     // too many fields
		"read:key with whitespace", // key contains space
	} {
		if _, err := ParseAPIKeys([]byte(bad)); err == nil {
			t.Errorf("ParseAPIKeys(%q): no error", bad)
		}
	}
}

// TestAuthScopes covers the 401/403 surface: missing and unknown keys,
// read-scope on the mutation surface, the /healthz exemption, and both
// key header slots.
func TestAuthScopes(t *testing.T) {
	m := newTestMaintainer(t, 4)
	keys, err := ParseAPIKeys([]byte("read:ro-key\nwrite:rw-key\n"))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Pool: onePool(t, m), APIKeys: keys})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	insertBody := `{"profile":{"1":1}}`
	cases := []struct {
		name, method, path, key, slot, body string
		want                                int
	}{
		{"healthz needs no key", "GET", "/healthz", "", "", "", 200},
		{"stats without key", "GET", "/stats", "", "", "", 401},
		{"stats with unknown key", "GET", "/stats", "nope", "bearer", "", 401},
		{"stats with read key", "GET", "/stats", "ro-key", "bearer", "", 200},
		{"stats via x-api-key", "GET", "/stats", "ro-key", "x-api-key", "", 200},
		{"metrics with read key", "GET", "/metrics", "ro-key", "bearer", "", 200},
		{"query is read scope", "POST", "/query", "ro-key", "bearer", `{"profile":{"1":1},"k":2}`, 200},
		{"insert with read key", "POST", "/users", "ro-key", "bearer", insertBody, 403},
		{"insert with write key", "POST", "/users", "rw-key", "bearer", insertBody, 201},
		{"ratings with read key", "POST", "/ratings", "ro-key", "bearer", `{"user":0,"item":1,"rating":2}`, 403},
	}
	for _, c := range cases {
		resp := doKeyed(t, c.method, ts.URL+c.path, c.key, c.slot, c.body)
		resp.Body.Close()
		if resp.StatusCode != c.want {
			t.Errorf("%s: status %d, want %d", c.name, resp.StatusCode, c.want)
		}
		if c.want == 401 && !strings.Contains(resp.Header.Get("WWW-Authenticate"), "Bearer") {
			t.Errorf("%s: 401 without WWW-Authenticate challenge", c.name)
		}
	}
}

// TestRateLimitFakeClock drives the token bucket with a fake clock:
// burst exhaustion → 429 with a Retry-After hint, refill after advancing
// the clock, and the cap on the bucket (no unbounded accrual).
func TestRateLimitFakeClock(t *testing.T) {
	m := newTestMaintainer(t, 4)
	var mu sync.Mutex
	now := time.Unix(1000, 0)
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	advance := func(d time.Duration) { mu.Lock(); now = now.Add(d); mu.Unlock() }

	srv, err := New(Config{Pool: onePool(t, m), RateLimit: 1, RateBurst: 2, RateLimitNow: clock})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	get := func() *http.Response {
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp
	}

	// Burst of 2, then denial with a finite Retry-After.
	for i := 0; i < 2; i++ {
		if resp := get(); resp.StatusCode != 200 {
			t.Fatalf("request %d within burst: status %d", i, resp.StatusCode)
		}
	}
	resp := get()
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("burst exhausted: status %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Fatalf("Retry-After = %q, want \"1\" (1 rps, 1 token short)", ra)
	}

	// One second of refill at 1 rps buys exactly one request.
	advance(time.Second)
	if resp := get(); resp.StatusCode != 200 {
		t.Fatalf("after refill: status %d", resp.StatusCode)
	}
	if resp := get(); resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("refill over-credited: status %d, want 429", resp.StatusCode)
	}

	// A long idle period refills only to the burst cap.
	advance(time.Hour)
	okCount := 0
	for i := 0; i < 5; i++ {
		if get().StatusCode == 200 {
			okCount++
		}
	}
	if okCount != 2 {
		t.Fatalf("after long idle: %d requests passed, want burst cap 2", okCount)
	}

	// /healthz bypasses the limiter even with an empty bucket.
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil || resp.StatusCode != 200 {
		t.Fatalf("healthz while limited: %v %v", resp.StatusCode, err)
	}
}

// TestRateLimitPerKeyOverride: a keys-file burst/rate override pins one
// key to a zero-refill bucket — deterministic denial after exactly
// `burst` requests, with the capped Retry-After — while another key
// rides the generous server-wide parameters.
func TestRateLimitPerKeyOverride(t *testing.T) {
	m := newTestMaintainer(t, 4)
	keys, err := ParseAPIKeys([]byte("read:capped-key:3:0\nwrite:free-key\n"))
	if err != nil {
		t.Fatal(err)
	}
	srv, err := New(Config{Pool: onePool(t, m), APIKeys: keys, RateLimit: 1000, RateBurst: 1000})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 3; i++ {
		resp := doKeyed(t, "GET", ts.URL+"/stats", "capped-key", "bearer", "")
		resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("capped key request %d: status %d", i, resp.StatusCode)
		}
	}
	for i := 0; i < 3; i++ {
		resp := doKeyed(t, "GET", ts.URL+"/stats", "capped-key", "bearer", "")
		resp.Body.Close()
		if resp.StatusCode != http.StatusTooManyRequests {
			t.Fatalf("capped key over burst: status %d, want 429", resp.StatusCode)
		}
		if ra := resp.Header.Get("Retry-After"); ra != "3600" {
			t.Fatalf("zero-refill Retry-After = %q, want capped \"3600\"", ra)
		}
	}
	// The other key's bucket is independent.
	resp := doKeyed(t, "GET", ts.URL+"/stats", "free-key", "bearer", "")
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("free key blocked by capped key's bucket: status %d", resp.StatusCode)
	}
}

// TestRequestLog: one JSON line per request, denied requests included,
// with the key ID (never the key) attributed.
func TestRequestLog(t *testing.T) {
	m := newTestMaintainer(t, 4)
	keys, err := ParseAPIKeys([]byte("write:log-key\n"))
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var lines []string
	logf := func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		lines = append(lines, fmt.Sprintf(format, args...))
	}
	srv, err := New(Config{Pool: onePool(t, m), APIKeys: keys, LogRequests: true, Logf: logf})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	doKeyed(t, "GET", ts.URL+"/stats", "log-key", "bearer", "").Body.Close()
	doKeyed(t, "GET", ts.URL+"/stats", "", "", "").Body.Close() // denied: 401

	mu.Lock()
	defer mu.Unlock()
	var got []requestLogLine
	for _, l := range lines {
		if !strings.HasPrefix(l, "{") {
			continue // writer batch / lifecycle lines share Logf
		}
		var rec requestLogLine
		if err := json.Unmarshal([]byte(l), &rec); err != nil {
			t.Fatalf("unparseable log line %q: %v", l, err)
		}
		got = append(got, rec)
	}
	if len(got) != 2 {
		t.Fatalf("got %d access-log lines, want 2: %v", len(got), lines)
	}
	wantID := keys[0].ID()
	if got[0].Status != 200 || got[0].Path != "/stats" || got[0].Key != wantID {
		t.Fatalf("authenticated line = %+v, want status 200 key %q", got[0], wantID)
	}
	if strings.Contains(fmt.Sprint(lines), "log-key") {
		t.Fatal("raw key material leaked into the access log")
	}
	if got[1].Status != 401 || got[1].Key != "" {
		t.Fatalf("denied line = %+v, want status 401 and no key", got[1])
	}
}

// scrapeMetrics fetches /metrics and returns a map of sample line →
// value for single-valued series, e.g. "kiffserve_queries_total" → 3.
func scrapeMetrics(t *testing.T, url string) map[string]float64 {
	t.Helper()
	resp, err := http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("GET /metrics: %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("content type %q is not the exposition format", ct)
	}
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			t.Fatalf("malformed sample line %q", line)
		}
		var v float64
		if _, err := fmt.Sscanf(line[i+1:], "%g", &v); err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		out[line[:i]] = v
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

// TestMetricsStatsConsistency is the tentpole contract: after a batch of
// mutations and reads, every value /metrics and /stats both report must
// agree exactly.
func TestMetricsStatsConsistency(t *testing.T) {
	m := newTestMaintainer(t, 4)
	boot := Boot{Load: 1234567890, Build: 250 * time.Millisecond, WAL: 3}
	srv, err := New(Config{Pool: onePool(t, m), MaxBatch: 4, Boot: boot})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for i := 0; i < 5; i++ {
		if status, out := postJSON(t, ts.URL+"/users", map[string]any{"profile": map[string]float64{"1": 1, "2": 2}}); status != 201 {
			t.Fatalf("insert %d: %d %v", i, status, out)
		}
	}
	if status, out := postJSON(t, ts.URL+"/ratings", map[string]any{"user": 0, "item": 3, "rating": 4}); status != 200 {
		t.Fatalf("rating: %d %v", status, out)
	}
	if status, _ := postJSON(t, ts.URL+"/query", map[string]any{"profile": map[string]float64{"1": 1}, "k": 3}); status != 200 {
		t.Fatal("query failed")
	}
	var nb map[string]any
	getJSON(t, ts.URL+"/neighbors/0", &nb)

	var stats struct {
		Version   float64 `json:"version"`
		Users     float64 `json:"users"`
		QueueCap  float64 `json:"queue_capacity"`
		Queries   float64 `json:"queries"`
		Neighbors float64 `json:"neighbor_requests"`
		Inserts   float64 `json:"inserts"`
		Ratings   float64 `json:"ratings"`
		Maintain  struct {
			Inserts      float64 `json:"inserts"`
			Rebuilds     float64 `json:"rebuilds"`
			RebuiltUsers float64 `json:"rebuilt_users"`
		} `json:"maintain"`
		Publish struct {
			Publications float64 `json:"publications"`
			PagesCopied  float64 `json:"pages_copied"`
			PagesShared  float64 `json:"pages_shared"`
		} `json:"publish"`
		Shards []struct {
			Users   float64 `json:"users"`
			Inserts float64 `json:"inserts"`
		} `json:"shards"`
		Boot struct {
			LoadNs  int64 `json:"load_ns"`
			BuildNs int64 `json:"build_ns"`
			WALNs   int64 `json:"wal_ns"`
		} `json:"boot"`
	}
	getJSON(t, ts.URL+"/stats", &stats)
	if got := (Boot{Load: time.Duration(stats.Boot.LoadNs), Build: time.Duration(stats.Boot.BuildNs), WAL: time.Duration(stats.Boot.WALNs)}); got != boot {
		t.Errorf("/stats boot = %+v, want %+v", got, boot)
	}
	mv := scrapeMetrics(t, ts.URL)
	// An unsharded server is a one-shard pool: one shards row, one
	// shard="0" series per family.
	if len(stats.Shards) != 1 {
		t.Fatalf("/stats shards = %d rows, want 1", len(stats.Shards))
	}

	// The /stats GET itself is not yet visible in the scrape-time request
	// counters? It is: /stats increments nothing, and the scrape hook
	// reads the atomics at scrape time — strictly after the getJSON above.
	for name, want := range map[string]float64{
		"kiffserve_snapshot_version":               stats.Version,
		"kiffserve_snapshot_users":                 stats.Users,
		"kiffserve_mutation_queue_capacity":        stats.QueueCap,
		"kiffserve_queries_total":                  stats.Queries,
		"kiffserve_neighbor_requests_total":        stats.Neighbors,
		"kiffserve_insert_requests_total":          stats.Inserts,
		"kiffserve_rating_requests_total":          stats.Ratings,
		"kiffserve_maintain_inserts_total":         stats.Maintain.Inserts,
		"kiffserve_maintain_rebuilds_total":        stats.Maintain.Rebuilds,
		"kiffserve_maintain_rebuilt_users_total":   stats.Maintain.RebuiltUsers,
		"kiffserve_publications_total":             stats.Publish.Publications,
		"kiffserve_pages_copied_total":             stats.Publish.PagesCopied,
		"kiffserve_pages_shared_total":             stats.Publish.PagesShared,
		`kiffserve_shard_users{shard="0"}`:         stats.Shards[0].Users,
		`kiffserve_shard_inserts_total{shard="0"}`: stats.Shards[0].Inserts,
		`kiffserve_boot_seconds{phase="load"}`:     float64(stats.Boot.LoadNs) / 1e9,
		`kiffserve_boot_seconds{phase="build"}`:    float64(stats.Boot.BuildNs) / 1e9,
		`kiffserve_boot_seconds{phase="wal"}`:      float64(stats.Boot.WALNs) / 1e9,
	} {
		got, ok := mv[name]
		if !ok {
			t.Errorf("metric %s missing from exposition", name)
			continue
		}
		if got != want {
			t.Errorf("%s = %g, /stats says %g", name, got, want)
		}
	}

	// Live request instrumentation: the inserts above must show up with
	// endpoint/method/code labels, and the latency histogram must have
	// observed them.
	if got := mv[`kiffserve_http_requests_total{endpoint="/users",method="POST",code="2xx"}`]; got != 5 {
		t.Errorf("request counter for /users = %g, want 5", got)
	}
	if got := mv[`kiffserve_http_requests_total{endpoint="/neighbors",method="GET",code="2xx"}`]; got != 1 {
		t.Errorf("request counter for /neighbors = %g, want 1", got)
	}
	if got := mv[`kiffserve_http_request_duration_seconds_count{endpoint="/users"}`]; got != 5 {
		t.Errorf("latency observations for /users = %g, want 5", got)
	}
	if mv["kiffserve_writer_batches_total"] < 1 {
		t.Error("no writer batches recorded")
	}
	if mv["kiffserve_writer_batch_size_count"] != mv["kiffserve_writer_batches_total"] {
		t.Errorf("batch histogram count %g != batches counter %g",
			mv["kiffserve_writer_batch_size_count"], mv["kiffserve_writer_batches_total"])
	}
}

// TestMetricsUnknownEndpointLabel: unmatched paths collapse into the
// "other" label so scanners cannot blow up series cardinality.
func TestMetricsUnknownEndpointLabel(t *testing.T) {
	m := newTestMaintainer(t, 4)
	srv, err := New(Config{Pool: onePool(t, m)})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	for _, p := range []string{"/nope", "/admin/../etc", "/neighbors"} {
		resp, err := http.Get(ts.URL + p)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	mv := scrapeMetrics(t, ts.URL)
	found := 0.0
	for name, v := range mv {
		if strings.HasPrefix(name, `kiffserve_http_requests_total{endpoint="other"`) {
			found += v
		}
	}
	if found < 2 {
		t.Fatalf("unknown paths not collapsed to \"other\": %g samples", found)
	}
}

// TestMetricsConcurrentScrapes hammers mutations and queries while
// scraping /metrics — the registry and the scrape hook must be safe
// under -race and every scrape must stay well-formed.
func TestMetricsConcurrentScrapes(t *testing.T) {
	m := newTestMaintainer(t, 4)
	srv, err := New(Config{Pool: onePool(t, m), MaxBatch: 8, QueueDepth: 32})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				postJSON(t, ts.URL+"/users", map[string]any{"profile": map[string]float64{"1": 1}})
				postJSON(t, ts.URL+"/query", map[string]any{"profile": map[string]float64{"1": 1}, "k": 2})
			}
		}()
	}
	for s := 0; s < 2; s++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 15; i++ {
				mv := scrapeMetrics(t, ts.URL)
				if len(mv) == 0 {
					t.Error("empty scrape")
				}
			}
		}()
	}
	wg.Wait()

	mv := scrapeMetrics(t, ts.URL)
	if got := mv["kiffserve_insert_requests_total"]; got != 80 {
		t.Fatalf("insert requests = %g, want 80", got)
	}
	if got := mv["kiffserve_queries_total"]; got != 80 {
		t.Fatalf("queries = %g, want 80", got)
	}
}
