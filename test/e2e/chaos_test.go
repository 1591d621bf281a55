package e2e

import (
	"fmt"
	"math/rand"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"kiff/internal/server"
)

// Chaos run parameters. Every value that shapes the run is logged so a
// failure reproduces exactly:
//
//	KIFF_CHAOS_SEED=<seed> KIFF_CHAOS_ACTIONS=<n> go test -run TestChaos ./test/e2e/
const (
	defaultChaosSeed    = 7
	defaultChaosActions = 220 // ≥ 200 actions is the acceptance floor
	chaosInitialUsers   = 60
	chaosItems          = 40
	chaosK              = 8
	chaosQueueDepth     = 8
	chaosShards         = 4
)

// Hardened-run admission parameters. Each RateLimitBurst episode drives
// a fresh zero-refill key whose bucket holds exactly
// rateLimitBurstAllowed tokens, then keeps going: the first `allowed`
// requests must succeed and every later one must be 429 — on both sides,
// independent of wall-clock timing, because an empty bucket with rate 0
// never refills within an incarnation.
const (
	chaosWriteKey         = "chaos-write-key" // huge burst override: drives all normal traffic
	chaosReadKey          = "chaos-read-key"  // read scope: the 403 probe
	rateLimitBurstAllowed = 6
	rateLimitBurstTotal   = 8
)

func envInt64(name string, def int64) int64 {
	if v := os.Getenv(name); v != "" {
		n, err := strconv.ParseInt(v, 10, 64)
		if err == nil {
			return n
		}
	}
	return def
}

// writeSeedEdgeList materializes the initial population deterministically
// from the seed: every user rates 3–6 items.
func writeSeedEdgeList(t *testing.T, dir string, seed int64) string {
	t.Helper()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	var sb strings.Builder
	for u := 0; u < chaosInitialUsers; u++ {
		n := 3 + rng.Intn(4)
		seen := map[int]bool{}
		for len(seen) < n {
			it := rng.Intn(chaosItems)
			if seen[it] {
				continue
			}
			seen[it] = true
			fmt.Fprintf(&sb, "%d %d %d\n", u, it, 1+rng.Intn(5))
		}
	}
	path := filepath.Join(dir, "ratings.tsv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// sut is the system under test: the kiffserve process plus everything
// needed to crash and resurrect it.
type sut struct {
	t        *testing.T
	bin      string
	sharded  bool
	ckptRoot string   // stable across restarts: generations continue
	walDir   string   // set in WAL mode (startWAL); stable across restarts
	extra    []string // hardening flags (-api-keys etc.), stable across restarts
	p        *proc
}

// coldArgs are the source flags of the very first boot: the kiffknn
// artifacts seeding one maintainer, or a cold-built 4-shard pool.
func (s *sut) coldArgs(gpath, dpath string) []string {
	if s.sharded {
		return []string{"-data", dpath, "-shards", fmt.Sprint(chaosShards), "-k", fmt.Sprint(chaosK)}
	}
	return []string{"-graph", gpath, "-data", dpath}
}

// start boots a kiffserve incarnation. ckptDir == "" means the initial
// boot from the kiffknn artifacts; otherwise the server restarts from a
// checkpoint directory it previously acknowledged — at either shard
// count a pool checkpoint (-pool). Every incarnation checkpoints under
// the same root, so the generation numbering must survive SIGKILLs.
func (s *sut) start(gpath, dpath, ckptDir string) {
	args := []string{"-queue", fmt.Sprint(chaosQueueDepth), "-checkpoint", s.ckptRoot}
	if ckptDir != "" {
		args = append(args, "-pool", ckptDir)
	} else {
		args = append(args, s.coldArgs(gpath, dpath)...)
	}
	args = append(args, s.extra...)
	s.p = startServer(s.t, s.bin, args...)
}

func (s *sut) url() string { return s.p.url }

func TestChaosUnsharded(t *testing.T) { runChaos(t, false, false) }
func TestChaosSharded(t *testing.T)   { runChaos(t, true, false) }

// TestChaosHardened is the same unsharded chaos run with the full
// admission-control stack enabled — API keys, rate limiting, request
// logging — plus the AuthFail and RateLimitBurst stream actions. Denial
// responses (401/403/429) must be byte-identical between the system
// under test and the oracle.
func TestChaosHardened(t *testing.T) { runChaos(t, false, true) }

// runChaos is the tentpole: a real kiffserve process (unsharded or a
// -shards pool) driven by a seeded action stream, mirrored into the
// in-process oracle, through crashes, graceful flips, checkpoint
// restarts and forced backpressure — converging byte-identically.
//
// Equality contract per mode: /query answers are compared in both modes
// (an exact query is a pure function of the dataset, so sharding must
// not change a byte); /neighbors lists are compared only at one shard —
// a 4-shard pool's neighborhoods are shard-local by design, so sharded
// Neighbors actions assert status and shape instead.
func runChaos(t *testing.T, sharded, hardened bool) {
	if testing.Short() {
		t.Skip("chaos run skipped in -short (CI runs it in the e2e-chaos job)")
	}
	seed := envInt64("KIFF_CHAOS_SEED", defaultChaosSeed)
	n := int(envInt64("KIFF_CHAOS_ACTIONS", defaultChaosActions))
	t.Logf("chaos run: seed=%d actions=%d sharded=%v hardened=%v (reproduce: KIFF_CHAOS_SEED=%d KIFF_CHAOS_ACTIONS=%d go test -run %s ./test/e2e/)",
		seed, n, sharded, hardened, seed, n, t.Name())

	serveBin, knnBin := buildBinaries(t)
	work := t.TempDir()
	edges := writeSeedEdgeList(t, work, seed)
	gpath := filepath.Join(work, "graph.kfg")
	dpath := filepath.Join(work, "data.kfd")
	runKiffknn(t, knnBin, edges, chaosK, gpath, dpath)

	actions := GenStream(StreamConfig{
		Seed:         seed,
		N:            n,
		InitialUsers: chaosInitialUsers,
		Items:        chaosItems,
		QueueDepth:   chaosQueueDepth,
		Restarts:     true,
		ReadonlyFlip: true,
		Hardened:     hardened,
	})

	// Hardened runs authenticate everything: one write key with a huge
	// burst override drives the normal traffic, a read key probes 403s,
	// and each RateLimitBurst episode gets its own zero-refill key (see
	// the constants above) — fresh per episode, so restarted bucket state
	// can never diverge the two sides. Both sides load the same file.
	var oracleMods []func(*server.Config)
	s := &sut{t: t, bin: serveBin, sharded: sharded, ckptRoot: filepath.Join(work, "sut-ckpt")}
	if hardened {
		var kb strings.Builder
		fmt.Fprintf(&kb, "write:%s:1000000\n", chaosWriteKey)
		fmt.Fprintf(&kb, "read:%s\n", chaosReadKey)
		for j := 0; j < streamStats(actions)[ActRateLimitBurst]; j++ {
			fmt.Fprintf(&kb, "read:chaos-burst-%d:%d:0\n", j, rateLimitBurstAllowed)
		}
		keysPath := filepath.Join(work, "keys.txt")
		if err := os.WriteFile(keysPath, []byte(kb.String()), 0o600); err != nil {
			t.Fatal(err)
		}
		keys, err := server.ParseAPIKeys([]byte(kb.String()))
		if err != nil {
			t.Fatal(err)
		}
		s.extra = []string{"-api-keys", keysPath, "-rate-limit", "1000", "-log-requests"}
		oracleMods = append(oracleMods, func(c *server.Config) {
			c.APIKeys = keys
			c.RateLimit = 1000
		})
		harnessKey = chaosWriteKey
		defer func() { harnessKey = "" }()
	}

	orc := newOracle(t, gpath, dpath, filepath.Join(work, "oracle-ckpt"), chaosQueueDepth, oracleMods...)
	s.start(gpath, dpath, "")

	// Boot sanity: both sides serve the same population.
	u1, _, _ := healthz(t, s.url())
	u2, _, _ := healthz(t, orc.url())
	if u1 != chaosInitialUsers || u2 != chaosInitialUsers {
		t.Fatalf("boot populations: sut=%d oracle=%d, want %d", u1, u2, chaosInitialUsers)
	}
	if hardened {
		// Auth really is on: an unauthenticated read must be rejected by
		// both sides before any stream traffic flows.
		st1, _, _ := doJSONKeyed(t, http.MethodGet, s.url()+"/stats", "", nil)
		st2, _, _ := doJSONKeyed(t, http.MethodGet, orc.url()+"/stats", "", nil)
		if st1 != http.StatusUnauthorized || st2 != http.StatusUnauthorized {
			t.Fatalf("unauthenticated probe: sut=%d oracle=%d, want 401/401", st1, st2)
		}
	}

	// Both sides take an initial checkpoint so the first KillRestart
	// always has an acknowledged state to reload.
	lastSutCkpt := checkpoint(t, s.url())
	lastOrcCkpt := checkpoint(t, orc.url())

	var restarts, flips, backpressures, authFails, rateBursts int
	for i, a := range actions {
		switch a.Kind {
		case ActAddUser:
			body := map[string]any{"profile": a.Profile}
			st1, b1 := doJSON(t, http.MethodPost, s.url()+"/users", body)
			st2, b2 := doJSON(t, http.MethodPost, orc.url()+"/users", body)
			if st1 != http.StatusCreated || st2 != http.StatusCreated {
				t.Fatalf("action %d AddUser: statuses sut=%d oracle=%d", i, st1, st2)
			}
			if id1, id2 := jsonField(t, b1, "id"), jsonField(t, b2, "id"); id1 != id2 {
				t.Fatalf("action %d AddUser: ids diverged sut=%s oracle=%s", i, id1, id2)
			}
		case ActAddRating:
			body := map[string]any{"user": a.User, "item": a.Item, "rating": a.Rating}
			st1, b1 := doJSON(t, http.MethodPost, s.url()+"/ratings", body)
			st2, _ := doJSON(t, http.MethodPost, orc.url()+"/ratings", body)
			if st1 != http.StatusOK || st2 != http.StatusOK {
				t.Fatalf("action %d AddRating %+v: statuses sut=%d oracle=%d (%s)", i, body, st1, st2, b1)
			}
		case ActQuery:
			body := map[string]any{"profile": a.Query, "k": a.K}
			st1, b1 := doJSON(t, http.MethodPost, s.url()+"/query", body)
			st2, b2 := doJSON(t, http.MethodPost, orc.url()+"/query", body)
			if st1 != http.StatusOK || st2 != http.StatusOK {
				t.Fatalf("action %d Query: statuses sut=%d oracle=%d", i, st1, st2)
			}
			if r1, r2 := jsonField(t, b1, "results"), jsonField(t, b2, "results"); r1 != r2 {
				t.Fatalf("action %d Query diverged\n sut:    %s\n oracle: %s", i, r1, r2)
			}
		case ActNeighbors:
			path := fmt.Sprintf("/neighbors/%d", a.Target)
			st1, b1 := doJSON(t, http.MethodGet, s.url()+path, nil)
			st2, b2 := doJSON(t, http.MethodGet, orc.url()+path, nil)
			if st1 != st2 {
				t.Fatalf("action %d Neighbors(%d): statuses sut=%d oracle=%d", i, a.Target, st1, st2)
			}
			if st1 != http.StatusOK {
				t.Fatalf("action %d Neighbors(%d): status %d (generator promised a live user)", i, a.Target, st1)
			}
			if !sharded {
				if n1, n2 := jsonField(t, b1, "neighbors"), jsonField(t, b2, "neighbors"); n1 != n2 {
					t.Fatalf("action %d Neighbors(%d) diverged\n sut:    %s\n oracle: %s", i, a.Target, n1, n2)
				}
			} else if jsonField(t, b1, "neighbors") == "" {
				t.Fatalf("action %d Neighbors(%d): sharded reply missing neighbors: %s", i, a.Target, b1)
			}
		case ActCheckpoint:
			lastSutCkpt = checkpoint(t, s.url())
			lastOrcCkpt = checkpoint(t, orc.url())
		case ActBackpressure:
			backpressures++
			s.runBackpressure(t, i, a, orc)
		case ActKillRestart:
			restarts++
			s.p.kill(t)
			s.start(gpath, dpath, lastSutCkpt)
			orc.restart(lastOrcCkpt)
			u1, _, _ := healthz(t, s.url())
			u2, _, _ := healthz(t, orc.url())
			if u1 != u2 {
				t.Fatalf("action %d KillRestart: populations diverged sut=%d oracle=%d", i, u1, u2)
			}
		case ActReadonlyFlip:
			flips++
			// Checkpoint, come back read-only from the checkpoint
			// (mutations must 403, reads must still match), then come back
			// mutable. Sharded neighborhoods are shard-local, so at four
			// shards the read compared is a query.
			lastSutCkpt = checkpoint(t, s.url())
			lastOrcCkpt = checkpoint(t, orc.url())
			s.p.terminate(t)
			ro := startServer(t, s.bin, append([]string{"-readonly", "-pool", lastSutCkpt}, s.extra...)...)
			if st, _ := doJSON(t, http.MethodPost, ro.url+"/users", map[string]any{"profile": map[uint32]float64{1: 1}}); st != http.StatusForbidden {
				t.Fatalf("action %d ReadonlyFlip: mutation returned %d, want 403", i, st)
			}
			if sharded {
				body := probeQuery(rand.New(rand.NewSource(seed + int64(i))))
				_, b1 := doJSON(t, http.MethodPost, ro.url+"/query", body)
				_, b2 := doJSON(t, http.MethodPost, orc.url()+"/query", body)
				if r1, r2 := jsonField(t, b1, "results"), jsonField(t, b2, "results"); r1 != r2 {
					t.Fatalf("action %d ReadonlyFlip: read-only query diverged\n sut:    %s\n oracle: %s", i, r1, r2)
				}
			} else {
				_, b1 := doJSON(t, http.MethodGet, ro.url+"/neighbors/0", nil)
				_, b2 := doJSON(t, http.MethodGet, orc.url()+"/neighbors/0", nil)
				if n1, n2 := jsonField(t, b1, "neighbors"), jsonField(t, b2, "neighbors"); n1 != n2 {
					t.Fatalf("action %d ReadonlyFlip: read-only neighbors diverged\n sut:    %s\n oracle: %s", i, n1, n2)
				}
			}
			ro.terminate(t)
			s.start(gpath, dpath, lastSutCkpt)
		case ActAuthFail:
			// A denied mutation: 401 for an unknown key, 403 for the
			// read-scoped key. The error bodies embed only the key's digest
			// prefix — identical on both sides — so whole bodies compare.
			authFails++
			key, want := "no-such-key", http.StatusUnauthorized
			if a.Variant == 1 {
				key, want = chaosReadKey, http.StatusForbidden
			}
			body := map[string]any{"profile": a.Profile}
			st1, h1, b1 := doJSONKeyed(t, http.MethodPost, s.url()+"/users", key, body)
			st2, h2, b2 := doJSONKeyed(t, http.MethodPost, orc.url()+"/users", key, body)
			if st1 != want || st2 != want {
				t.Fatalf("action %d AuthFail(v%d): statuses sut=%d oracle=%d, want %d", i, a.Variant, st1, st2, want)
			}
			if string(b1) != string(b2) {
				t.Fatalf("action %d AuthFail(v%d) bodies diverged\n sut:    %s\n oracle: %s", i, a.Variant, b1, b2)
			}
			if want == http.StatusUnauthorized &&
				(h1.Get("WWW-Authenticate") == "" || h1.Get("WWW-Authenticate") != h2.Get("WWW-Authenticate")) {
				t.Fatalf("action %d AuthFail: WWW-Authenticate sut=%q oracle=%q", i, h1.Get("WWW-Authenticate"), h2.Get("WWW-Authenticate"))
			}
		case ActRateLimitBurst:
			// Drive a fresh zero-refill key past its bucket on both sides:
			// exactly rateLimitBurstAllowed requests pass, the rest are 429
			// with the capped Retry-After — deterministically.
			key := fmt.Sprintf("chaos-burst-%d", rateBursts)
			rateBursts++
			body := map[string]any{"profile": a.Query, "k": a.K}
			for r := 0; r < rateLimitBurstTotal; r++ {
				st1, h1, b1 := doJSONKeyed(t, http.MethodPost, s.url()+"/query", key, body)
				st2, _, b2 := doJSONKeyed(t, http.MethodPost, orc.url()+"/query", key, body)
				if st1 != st2 {
					t.Fatalf("action %d RateLimitBurst req %d: statuses sut=%d oracle=%d", i, r, st1, st2)
				}
				if r < rateLimitBurstAllowed {
					if st1 != http.StatusOK {
						t.Fatalf("action %d RateLimitBurst req %d: status %d inside the bucket", i, r, st1)
					}
					if r1, r2 := jsonField(t, b1, "results"), jsonField(t, b2, "results"); r1 != r2 {
						t.Fatalf("action %d RateLimitBurst req %d diverged\n sut:    %s\n oracle: %s", i, r, r1, r2)
					}
				} else {
					if st1 != http.StatusTooManyRequests {
						t.Fatalf("action %d RateLimitBurst req %d: status %d past the bucket, want 429", i, r, st1)
					}
					if string(b1) != string(b2) {
						t.Fatalf("action %d RateLimitBurst req %d 429 bodies diverged\n sut:    %s\n oracle: %s", i, r, b1, b2)
					}
					if ra := h1.Get("Retry-After"); ra != "3600" {
						t.Fatalf("action %d RateLimitBurst req %d: Retry-After %q, want capped 3600 (zero refill)", i, r, ra)
					}
				}
			}
		}
	}

	if restarts == 0 || backpressures == 0 {
		t.Fatalf("stream exercised %d restarts and %d backpressure episodes; both must be ≥ 1", restarts, backpressures)
	}
	if hardened && (authFails == 0 || rateBursts == 0) {
		t.Fatalf("hardened stream exercised %d auth failures and %d rate bursts; both must be ≥ 1", authFails, rateBursts)
	}
	t.Logf("chaos run done: %d actions, %d kill+restarts, %d read-only flips, %d backpressure episodes, %d auth failures, %d rate bursts",
		len(actions), restarts, flips, backpressures, authFails, rateBursts)

	if hardened {
		// The hardened meters surfaced through /metrics. Counters are
		// per-incarnation (a restart zeroes them), so provoke one fresh
		// forbidden denial before scraping rather than relying on where
		// the stream's denials landed relative to the last restart.
		if st, _, _ := doJSONKeyed(t, http.MethodPost, s.url()+"/users", chaosReadKey,
			map[string]any{"profile": map[uint32]float64{1: 1}}); st != http.StatusForbidden {
			t.Fatalf("post-run forbidden probe: %d, want 403", st)
		}
		st, _, exp := doJSONKeyed(t, http.MethodGet, s.url()+"/metrics", chaosWriteKey, nil)
		if st != http.StatusOK {
			t.Fatalf("GET /metrics: %d", st)
		}
		for _, want := range []string{
			"kiffserve_http_requests_total{",
			"kiffserve_http_request_duration_seconds_bucket{",
			"kiffserve_rate_limited_total",
			`kiffserve_auth_failures_total{reason="forbidden"}`,
			"kiffserve_mutation_queue_capacity",
		} {
			if !strings.Contains(string(exp), want) {
				t.Fatalf("/metrics exposition missing %q", want)
			}
		}
	}

	// --- Convergence: after quiescence (every mutation acknowledged),
	// the served state must be byte-identical to the oracle.
	u1, _, _ = healthz(t, s.url())
	u2, _, _ = healthz(t, orc.url())
	if u1 != u2 {
		t.Fatalf("final populations diverged: sut=%d oracle=%d", u1, u2)
	}
	if !sharded {
		for u := 0; u < u1; u++ {
			path := fmt.Sprintf("/neighbors/%d", u)
			_, b1 := doJSON(t, http.MethodGet, s.url()+path, nil)
			_, b2 := doJSON(t, http.MethodGet, orc.url()+path, nil)
			if n1, n2 := jsonField(t, b1, "neighbors"), jsonField(t, b2, "neighbors"); n1 != n2 {
				t.Fatalf("final neighbors(%d) diverged\n sut:    %s\n oracle: %s", u, n1, n2)
			}
		}
	}
	probes := 20
	if sharded {
		probes = 30
	}
	prng := rand.New(rand.NewSource(seed*31 + 17))
	for p := 0; p < probes; p++ {
		body := probeQuery(prng)
		_, b1 := doJSON(t, http.MethodPost, s.url()+"/query", body)
		_, b2 := doJSON(t, http.MethodPost, orc.url()+"/query", body)
		if r1, r2 := jsonField(t, b1, "results"), jsonField(t, b2, "results"); r1 != r2 {
			t.Fatalf("final probe %d diverged\n sut:    %s\n oracle: %s", p, r1, r2)
		}
	}
	t.Logf("converged: %d users byte-identical, %d probe queries byte-identical", u1, probes)
}

// runBackpressure forces a queue-saturation episode: freeze the writer
// via /faults, fire a burst of concurrent inserts that overfills the
// queue, require /healthz to report degraded while reads keep working,
// then release and replay the acknowledged inserts into the oracle in
// ID order — the IDs the two sides assign must agree.
func (s *sut) runBackpressure(t *testing.T, i int, a Action, orc *oracle) {
	t.Helper()
	if st, b := doJSON(t, http.MethodPost, s.url()+"/faults", map[string]any{"hold": true}); st != http.StatusOK {
		t.Fatalf("action %d Backpressure: hold failed: %d %s", i, st, b)
	}
	type ack struct {
		status int
		id     uint64
		prof   map[uint32]float64
	}
	acks := make([]ack, len(a.Burst))
	var wg sync.WaitGroup
	for b, prof := range a.Burst {
		wg.Add(1)
		go func(b int, prof map[uint32]float64) {
			defer wg.Done()
			st, body := doJSON(t, http.MethodPost, s.url()+"/users", map[string]any{"profile": prof})
			acks[b] = ack{status: st, prof: prof}
			if st == http.StatusCreated {
				id, err := strconv.ParseUint(jsonField(t, body, "id"), 10, 32)
				if err != nil {
					t.Errorf("action %d Backpressure: bad id in %s", i, body)
					return
				}
				acks[b].id = id
			}
		}(b, prof)
	}
	// The queue must saturate: writer frozen, capacity QueueDepth, burst
	// of QueueDepth+2 (one op in the writer's hand, one producer blocked
	// on the full channel).
	deadline := time.Now().Add(15 * time.Second)
	for {
		_, ready, depth := healthz(t, s.url())
		if ready == "degraded" {
			t.Logf("action %d Backpressure: degraded at queue depth %d", i, depth)
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("action %d Backpressure: /healthz never reported degraded (depth %d)", i, depth)
		}
		time.Sleep(time.Millisecond)
	}
	// Reads must keep answering while writes are backed up.
	if st, _ := doJSON(t, http.MethodGet, s.url()+"/neighbors/0", nil); st != http.StatusOK {
		t.Fatalf("action %d Backpressure: read failed during saturation: %d", i, st)
	}
	if st, _ := doJSON(t, http.MethodPost, s.url()+"/faults", map[string]any{"hold": false}); st != http.StatusOK {
		t.Fatalf("action %d Backpressure: release failed: %d", i, st)
	}
	wg.Wait()
	for b, ak := range acks {
		if ak.status != http.StatusCreated {
			t.Fatalf("action %d Backpressure: burst insert %d: status %d", i, b, ak.status)
		}
	}
	// The concurrent burst reached the queue in nondeterministic order;
	// the server's assigned IDs define the canonical one. Replaying into
	// the oracle in ID order must reproduce the IDs exactly — both sides
	// allocate densely from the same population.
	sort.Slice(acks, func(x, y int) bool { return acks[x].id < acks[y].id })
	for _, ak := range acks {
		st, body := doJSON(t, http.MethodPost, orc.url()+"/users", map[string]any{"profile": ak.prof})
		if st != http.StatusCreated {
			t.Fatalf("action %d Backpressure: oracle replay: status %d", i, st)
		}
		oid := jsonField(t, body, "id")
		if oid != strconv.FormatUint(ak.id, 10) {
			t.Fatalf("action %d Backpressure: id diverged sut=%d oracle=%s", i, ak.id, oid)
		}
	}
}

// probeQuery draws a random /query body over the chaos item space: the
// convergence probes, and the read a sharded ReadonlyFlip compares.
func probeQuery(prng *rand.Rand) map[string]any {
	profile := map[uint32]float64{}
	for len(profile) < 2+prng.Intn(4) {
		profile[uint32(prng.Intn(chaosItems))] = float64(1 + prng.Intn(5))
	}
	return map[string]any{"profile": profile, "k": 3 + prng.Intn(6)}
}
