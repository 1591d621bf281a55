// Package server implements the HTTP serving front-end over the
// lock-free snapshot path (cmd/kiffserve is the thin binary around it).
//
// The backend is a kiff.ShardedMaintainer pool — an unsharded server is
// a one-shard pool. Reads never take a lock: every request pins a
// shard.View over the shards' immutable published snapshots and serves
// neighbor lists and profile queries from it (Neighbors routes to the
// owning shard, Query fans out and splices; one shard answers inline).
// Writes are funneled through a bounded channel to one writer goroutine,
// which drains the queue in batches (InsertBatch per run of inserts and
// one Rebuild per batch, each a copy-on-write publication that the pool
// parallelizes across shards), and a full queue pushes back on
// producers — a mutation request blocks until the writer catches up or
// the client gives up, which is the server's backpressure.
//
// Endpoints:
//
//	GET  /healthz            liveness + snapshot version
//	GET  /stats              serving counters, queue depth, maintenance costs, boot split
//	GET  /metrics            Prometheus text-format exposition of the same meters
//	GET  /neighbors/{user}   the user's current KNN list
//	POST /query              profile → top-k similar users (or recommended items)
//	POST /users              insert a user profile, returns its ID
//	POST /ratings            record rating updates, rebuild, returns the new version
//	POST /checkpoint         save writer state into a fresh directory (Config.CheckpointDir)
//	GET  /faults             fault-injection knobs (test-only, Config.Faults)
//
// /healthz carries a readiness facet alongside liveness: "ready" flips
// to "degraded" while the mutation queue is saturated (writes block),
// and back to "ok" once the writer catches up; reads are unaffected.
//
// A server constructed from a static View pinned at boot (no pool) is
// read-only: mutation endpoints return 403 and everything else works
// unchanged — the zero-copy "map a checkpoint and serve" mode.
package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"kiff"
	"kiff/internal/knngraph"
	"kiff/internal/shard"
)

// Config assembles a Server. Exactly one of Pool (mutable serving) or
// Static (read-only serving) must be set.
type Config struct {
	// Pool is the maintained graph (kiff.OneShardPool wraps a single
	// Maintainer). The Server owns the write side: no other goroutine may
	// mutate it while the Server is running.
	Pool *kiff.ShardedMaintainer
	// Static serves a View pinned at boot when Pool is nil; mutation
	// endpoints are disabled.
	Static *shard.View
	// QueryBudget bounds similarity evaluations per query when the
	// request does not set its own; ≤ 0 means exhaustive (exact) queries.
	QueryBudget int
	// MaxBatch caps how many queued mutations the writer applies per
	// batch (default 64).
	MaxBatch int
	// QueueDepth bounds the mutation queue; a full queue blocks mutation
	// requests — the backpressure contract (default 256).
	QueueDepth int
	// CheckpointDir, when set on a mutable server, enables POST
	// /checkpoint: the writer saves its state into a fresh subdirectory
	// of CheckpointDir and returns the path. Empty disables the endpoint.
	CheckpointDir string
	// Faults, when set, wires the fault-injection knobs into the writer
	// and registers the /faults endpoint. Test-only: leave nil in
	// production (see Faults).
	Faults *Faults
	// Logf, when set, receives one line per mutation batch and lifecycle
	// event (default: silent).
	Logf func(format string, args ...any)
	// APIKeys, when non-empty, enables API-key authentication: every
	// request except GET /healthz must present one of these keys (see
	// LoadAPIKeys) or is answered 401; read-scoped keys get 403 on the
	// mutation surface.
	APIKeys []APIKey
	// RateLimit, when > 0, enables per-key token-bucket rate limiting at
	// this many requests/second (buckets are keyed by API key, or client
	// IP when authentication is off). Exhausted buckets answer 429 with a
	// Retry-After hint. Per-key overrides in the keys file take precedence.
	RateLimit float64
	// RateBurst is the token-bucket capacity when rate limiting is
	// enabled (default: RateLimit rounded down, at least 1).
	RateBurst int
	// RateLimitNow overrides the rate limiter's clock (tests only).
	RateLimitNow func() time.Time
	// LogRequests enables the structured access log: one JSON line per
	// request through Logf, including denied (401/403/429) requests.
	LogRequests bool
	// Boot is the cold start of the backend, phase by phase, as whoever
	// assembled it measured it. /stats reports it under "boot" and
	// /metrics as kiffserve_boot_seconds{phase}; zero when not measured.
	Boot Boot
}

// Boot splits a server's cold start into its phases.
type Boot struct {
	// Load is loading the source: an edge list, a dataset or a checkpoint.
	Load time.Duration
	// Build is the cold build, or the seeding from a graph checkpoint.
	Build time.Duration
	// WAL is attaching the write-ahead logs, their replay included.
	WAL time.Duration
}

// ErrClosed is returned to mutation requests that arrive once the server
// has begun shutting down. Mutations already queued at that point are
// not failed: Close flushes them through the writer so every
// acknowledged — and every accepted-but-pending — mutation is applied
// before the state is checkpointed.
var ErrClosed = errors.New("server: closed")

// Server routes HTTP requests onto a pinned view and, when mutable, runs
// the writer goroutine. Create with New, serve via Handler, stop with
// Close (after the HTTP listener has drained).
type Server struct {
	cfg    Config
	pool   *kiff.ShardedMaintainer // nil = read-only
	static *shard.View
	mux    *http.ServeMux

	// handler is the mux wrapped in the middleware chain (buildChain);
	// what Handler returns. auth and limiter are nil when their layer is
	// not configured; metrics is always set.
	handler http.Handler
	auth    *authenticator
	limiter *rateLimiter
	metrics *serverMetrics

	ops       chan op
	stop      chan struct{} // closed by Close: writer flushes and exits
	done      chan struct{} // closed when the writer has exited
	closeOnce sync.Once

	// ckptSeq numbers the checkpoint directories this process hands out;
	// writer-only, no synchronization needed.
	ckptSeq uint64
	// flushing is set while the writer runs the shutdown flush; writer
	// goroutine only. Fault injection is bypassed during the flush so a
	// held or stalled writer still terminates.
	flushing bool

	queries      atomic.Int64
	neighborGets atomic.Int64
	inserts      atomic.Int64
	ratings      atomic.Int64
	rejected     atomic.Int64
}

type opKind uint8

const (
	opInsert opKind = iota
	opRatings
	opCheckpoint
)

// Rating is one rating update of the POST /ratings payload.
type Rating struct {
	User   uint32  `json:"user"`
	Item   uint32  `json:"item"`
	Rating float64 `json:"rating"`
}

// op is one queued mutation; the writer sends exactly one opResult on
// reply (buffered, never blocks the writer).
type op struct {
	kind    opKind
	profile kiff.Profile
	ratings []Rating
	reply   chan opResult
}

type opResult struct {
	id      uint32
	version uint64
	dir     string // opCheckpoint: the directory written
	err     error
}

// New validates the configuration and starts the writer goroutine (when
// mutable). The returned Server is ready to serve.
func New(cfg Config) (*Server, error) {
	if (cfg.Pool == nil) == (cfg.Static == nil) {
		return nil, errors.New("server: exactly one of Pool or Static must be set")
	}
	if cfg.MaxBatch <= 0 {
		cfg.MaxBatch = 64
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 256
	}
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	s := &Server{
		cfg:    cfg,
		pool:   cfg.Pool,
		static: cfg.Static,
		ops:    make(chan op, cfg.QueueDepth),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /neighbors/{user}", s.handleNeighbors)
	s.mux.HandleFunc("POST /query", s.handleQuery)
	s.mux.HandleFunc("POST /users", s.handleInsert)
	s.mux.HandleFunc("POST /ratings", s.handleRatings)
	if cfg.CheckpointDir != "" {
		s.mux.HandleFunc("POST /checkpoint", s.handleCheckpoint)
	}
	if cfg.Faults != nil {
		s.mux.HandleFunc("GET /faults", s.handleFaults)
		s.mux.HandleFunc("POST /faults", s.handleFaults)
	}
	s.metrics = newServerMetrics(s)
	s.mux.Handle("GET /metrics", s.metrics.reg.Handler())
	if len(cfg.APIKeys) > 0 {
		s.auth = &authenticator{keys: cfg.APIKeys}
	}
	if cfg.RateLimit > 0 {
		burst := cfg.RateBurst
		if burst <= 0 {
			burst = int(cfg.RateLimit)
			if burst < 1 {
				burst = 1
			}
		}
		s.limiter = newRateLimiter(cfg.RateLimit, burst, cfg.RateLimitNow)
	}
	s.handler = s.buildChain()
	if s.pool != nil {
		if cfg.CheckpointDir != "" {
			// Seed the generation counter from what is already on disk, so
			// a restarted server continues the ckpt-N sequence instead of
			// overwriting checkpoints a previous incarnation wrote.
			s.ckptSeq = nextCheckpointGen(cfg.CheckpointDir)
		}
		go s.writer()
	} else {
		close(s.done)
	}
	return s, nil
}

// Handler returns the HTTP handler for the server's routes, wrapped in
// the configured middleware chain (instrumentation is always present;
// request logging, authentication and rate limiting when enabled).
func (s *Server) Handler() http.Handler { return s.handler }

// Close stops the writer goroutine and waits for it to exit. Mutations
// already accepted into the queue are flushed — applied and published,
// their handlers answered — before the writer exits, so a checkpoint
// taken after Close (SaveFinal) contains every acknowledged mutation;
// only requests arriving after Close fail with ErrClosed. Call after
// the HTTP listener has stopped accepting requests
// (http.Server.Shutdown) so no new mutations race the flush. Close is
// idempotent.
func (s *Server) Close() error {
	s.closeOnce.Do(func() { close(s.stop) })
	<-s.done
	return nil
}

// source pins the current serving view — the only coupling between the
// read path and the writer.
func (s *Server) source() *shard.View {
	if s.pool != nil {
		return s.pool.View()
	}
	return s.static
}

// readOnly reports whether mutation endpoints are disabled.
func (s *Server) readOnly() bool { return s.pool == nil }

// walAttached reports whether the pool appends mutations to write-ahead
// logs before applying them.
func (s *Server) walAttached() bool { return s.pool != nil && s.pool.WALAttached() }

// walError returns the append failure that fail-stopped the pool, or
// nil while the logs are healthy (or absent).
func (s *Server) walError() error {
	if s.pool == nil {
		return nil
	}
	return s.pool.WALError()
}

// --- Writer side --------------------------------------------------------

// writer is the single mutation applier: it owns every call into the
// pool. Batches amortize snapshot publication; see apply. When
// fault injection is configured, the writer honors the hold and
// batch-delay knobs here, between receiving a batch's first op and
// applying it — never during the shutdown flush.
func (s *Server) writer() {
	defer close(s.done)
	for {
		var first op
		select {
		case first = <-s.ops:
		case <-s.stop:
			s.flush(nil)
			return
		}
		if !s.waitHold() {
			// Shutdown arrived while held: the hold is overridden, flush
			// everything including the op already in hand.
			s.flush(&first)
			return
		}
		batch := make([]op, 1, s.cfg.MaxBatch)
		batch[0] = first
	fill:
		for len(batch) < s.cfg.MaxBatch {
			select {
			case o := <-s.ops:
				batch = append(batch, o)
			default:
				break fill
			}
		}
		if f := s.cfg.Faults; f != nil {
			if d := f.BatchDelay(); d > 0 {
				time.Sleep(d)
			}
		}
		s.apply(batch)
	}
}

// waitHold blocks while the hold fault is set. It returns false when
// shutdown is requested mid-hold — the caller must flush and exit.
func (s *Server) waitHold() bool {
	f := s.cfg.Faults
	if f == nil {
		return true
	}
	for f.Hold() {
		select {
		case <-s.stop:
			return false
		case <-time.After(time.Millisecond):
		}
	}
	return true
}

// flush applies every op still queued at shutdown (plus carry, an op the
// writer had already received), in arrival order, so acknowledged and
// accepted mutations survive a graceful stop — the flush half of the
// Close contract. Fault injection is bypassed (s.flushing).
func (s *Server) flush(carry *op) {
	s.flushing = true
	batch := make([]op, 0, s.cfg.MaxBatch)
	if carry != nil {
		batch = append(batch, *carry)
	}
	for {
		select {
		case o := <-s.ops:
			batch = append(batch, o)
		default:
			if len(batch) > 0 {
				s.apply(batch)
			}
			return
		}
	}
}

// pendingReply is a buffered acknowledgment: apply records every op's
// result here and sends them all after the batch (and any injected
// publish stall) completes, so the stall models "applied but not yet
// acknowledged" for the whole batch.
type pendingReply struct {
	ch  chan opResult
	res opResult
}

// apply executes one batch: runs of consecutive inserts go through
// InsertBatch (one snapshot publication per run), rating ops are
// recorded and rebuilt at the next barrier (a checkpoint op, or the end
// of the batch — one more publication), checkpoint ops save the fully
// applied prefix, and every op gets its reply once the whole batch has
// been applied. Order within the batch is preserved.
func (s *Server) apply(batch []op) {
	replies := make([]pendingReply, 0, len(batch))
	reply := func(o op, res opResult) {
		replies = append(replies, pendingReply{o.reply, res})
	}
	var pendingRatings []op
	applied := 0
	// flushRatings rebuilds for any ratings recorded so far and queues
	// their acknowledgments; called before a checkpoint (its snapshot
	// must include them) and at the end of the batch.
	flushRatings := func() {
		if len(pendingRatings) == 0 {
			return
		}
		err := s.pool.Rebuild(nil)
		version := s.pool.Version()
		for _, o := range pendingRatings {
			reply(o, opResult{version: version, err: err})
		}
		pendingRatings = pendingRatings[:0]
	}
	for i := 0; i < len(batch); {
		switch batch[i].kind {
		case opInsert:
			j := i
			for j < len(batch) && batch[j].kind == opInsert {
				j++
			}
			profiles := make([]kiff.Profile, j-i)
			for k := i; k < j; k++ {
				profiles[k-i] = batch[k].profile
			}
			ids, err := s.pool.InsertBatch(profiles)
			version := s.pool.Version()
			for k := i; k < j; k++ {
				if k-i < len(ids) {
					reply(batch[k], opResult{id: ids[k-i], version: version})
				} else {
					reply(batch[k], opResult{err: err})
				}
			}
			applied += len(ids)
			i = j
		case opRatings:
			// Pre-validate the whole op against the live dataset before
			// touching it, so one bad rating cannot leave the batch
			// half-applied (AddRating's only failure mode is an
			// out-of-range user).
			var err error
			n := uint32(s.pool.NumUsers())
			for _, rt := range batch[i].ratings {
				if rt.User >= n {
					err = fmt.Errorf("user %d out of range (have %d users)", rt.User, n)
					break
				}
			}
			if err == nil {
				for _, rt := range batch[i].ratings {
					if err = s.pool.AddRating(rt.User, rt.Item, rt.Rating); err != nil {
						break
					}
					applied++
				}
			}
			if err != nil {
				reply(batch[i], opResult{err: err})
			} else {
				// Acknowledge after the next rebuild, so the reported
				// version includes the update.
				pendingRatings = append(pendingRatings, batch[i])
			}
			i++
		case opCheckpoint:
			flushRatings()
			dir, err := s.checkpoint()
			reply(batch[i], opResult{dir: dir, version: s.pool.Version(), err: err})
			i++
		}
	}
	flushRatings()
	if f := s.cfg.Faults; f != nil && !s.flushing {
		// The stall window: state is applied and published but clients
		// have not been acknowledged. A crash here turns acknowledged
		// work into lost work on one side only — exactly what the chaos
		// harness's checkpoint-restart discipline must tolerate.
		if d := f.PublishStall(); d > 0 {
			time.Sleep(d)
		}
	}
	for _, pr := range replies {
		pr.ch <- pr.res
	}
	s.metrics.batches.Inc()
	s.metrics.batchSize.Observe(float64(len(batch)))
	s.cfg.Logf("server: applied batch of %d ops (%d mutations), version %d",
		len(batch), applied, s.pool.Version())
}

// enqueue funnels one mutation to the writer, blocking while the queue is
// full (backpressure) until the client gives up or the server closes.
func (s *Server) enqueue(r *http.Request, o op) opResult {
	if s.readOnly() {
		return opResult{err: errReadOnly}
	}
	o.reply = make(chan opResult, 1)
	select {
	case s.ops <- o:
	case <-r.Context().Done():
		s.rejected.Add(1)
		return opResult{err: errQueueWait}
	case <-s.stop:
		s.rejected.Add(1)
		return opResult{err: ErrClosed}
	}
	select {
	case res := <-o.reply:
		return res
	case <-s.done:
		// The writer exited; it may still have replied in the instant
		// before — prefer the reply.
		select {
		case res := <-o.reply:
			return res
		default:
			return opResult{err: ErrClosed}
		}
	}
}

var (
	errReadOnly  = errors.New("server: read-only (started from a static view)")
	errQueueWait = errors.New("server: request canceled while waiting for the write queue")
)

// --- Read handlers ------------------------------------------------------

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	src := s.source()
	// The readiness facet: "ok" while the writer keeps up, "degraded"
	// while the mutation queue is saturated (new mutations block — the
	// backpressure episode a load balancer should route around). Reads
	// stay healthy either way, so liveness ("status") is unaffected.
	ready := "ok"
	if !s.readOnly() && cap(s.ops) > 0 && len(s.ops) >= cap(s.ops) {
		ready = "degraded"
	}
	resp := map[string]any{
		"status":         "ok",
		"ready":          ready,
		"version":        src.Version(),
		"users":          src.NumUsers(),
		"queue_depth":    len(s.ops),
		"queue_capacity": cap(s.ops),
	}
	if err := s.walError(); err != nil {
		// An append failure fail-stopped the write path: mutations are
		// refused until a restart replays the log. Worse than "degraded"
		// (which clears on its own) but reads still work, so liveness
		// stays "ok".
		resp["ready"] = "failed"
		resp["wal_error"] = err.Error()
	}
	writeJSON(w, http.StatusOK, resp)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	src := s.source()
	resp := map[string]any{
		"version":           src.Version(),
		"users":             src.NumUsers(),
		"k":                 src.K(),
		"read_only":         s.readOnly(),
		"queue_depth":       len(s.ops),
		"queue_capacity":    cap(s.ops),
		"queries":           s.queries.Load(),
		"neighbor_requests": s.neighborGets.Load(),
		"inserts":           s.inserts.Load(),
		"ratings":           s.ratings.Load(),
		"rejected":          s.rejected.Load(),
		"boot": map[string]any{
			"load_ns":  s.cfg.Boot.Load.Nanoseconds(),
			"build_ns": s.cfg.Boot.Build.Nanoseconds(),
			"wal_ns":   s.cfg.Boot.WAL.Nanoseconds(),
		},
	}
	if s.pool != nil {
		// Cumulative maintenance counters, summed over shards: what
		// serving-time freshness has cost so far — similarity
		// evaluations and wall time, inserted users, rebuild passes and
		// the users they refreshed.
		c := s.pool.Counters()
		resp["shards"] = shardStatsJSON(s.pool.ShardStats())
		resp["maintain"] = map[string]any{
			"sim_evals":     c.SimEvals,
			"wall_ns":       c.WallNs,
			"inserts":       c.Inserts,
			"rebuilds":      c.Rebuilds,
			"rebuilt_users": c.RebuiltUsers,
		}
		// Publication cost: how many snapshots the shards published and
		// the copy-on-write page accounting — pages rebuilt because they
		// held dirty rows versus pages shared with the previous snapshot.
		// A healthy incremental workload is dominated by shared pages.
		// last_publish_ns is the slowest shard's most recent publish.
		resp["publish"] = map[string]any{
			"publications":    c.Publishes,
			"pages_copied":    c.PagesCopied,
			"pages_shared":    c.PagesShared,
			"publish_ns":      c.PublishNs,
			"last_publish_ns": c.LastPublishNs,
		}
	}
	if s.walAttached() {
		// Durability cost and progress: appends (and their bytes) since
		// boot, fsyncs issued, records replayed at startup, torn-tail
		// bytes discarded by recovery, and the current LSN horizon, summed
		// over the per-shard logs.
		c := s.pool.WALCounters()
		walBlock := map[string]any{
			"appended":        c.Appended,
			"appended_bytes":  c.AppendedBytes,
			"fsyncs":          c.Fsyncs,
			"append_errors":   c.AppendErrors,
			"replayed":        c.Replayed,
			"truncated_bytes": c.TruncatedBytes,
			"last_lsn":        c.LastLSN,
		}
		if err := s.walError(); err != nil {
			walBlock["error"] = err.Error()
		}
		resp["wal"] = walBlock
	}
	writeJSON(w, http.StatusOK, resp)
}

// shardStat is one shard's row of the /stats "shards" list.
type shardStat struct {
	Shard        int    `json:"shard"`
	Users        int    `json:"users"`
	Version      uint64 `json:"version"`
	SimEvals     int64  `json:"sim_evals"`
	Inserts      int64  `json:"inserts"`
	Rebuilds     int64  `json:"rebuilds"`
	RebuiltUsers int64  `json:"rebuilt_users"`
	Publishes    int64  `json:"publications"`
	PagesCopied  int64  `json:"pages_copied"`
	PagesShared  int64  `json:"pages_shared"`
}

func shardStatsJSON(stats []shard.Stats) []shardStat {
	out := make([]shardStat, len(stats))
	for i, st := range stats {
		out[i] = shardStat{
			Shard:        st.Shard,
			Users:        st.Users,
			Version:      st.Version,
			SimEvals:     st.Counters.SimEvals,
			Inserts:      st.Counters.Inserts,
			Rebuilds:     st.Counters.Rebuilds,
			RebuiltUsers: st.Counters.RebuiltUsers,
			Publishes:    st.Counters.Publishes,
			PagesCopied:  st.Counters.PagesCopied,
			PagesShared:  st.Counters.PagesShared,
		}
	}
	return out
}

type neighborJSON struct {
	ID  uint32  `json:"id"`
	Sim float64 `json:"sim"`
}

func (s *Server) handleNeighbors(w http.ResponseWriter, r *http.Request) {
	s.neighborGets.Add(1)
	src := s.source()
	u, err := strconv.ParseUint(r.PathValue("user"), 10, 32)
	if err != nil {
		httpError(w, http.StatusBadRequest, fmt.Errorf("bad user id: %w", err))
		return
	}
	if u >= uint64(src.NumUsers()) {
		httpError(w, http.StatusNotFound, fmt.Errorf("user %d not in snapshot (have %d users)", u, src.NumUsers()))
		return
	}
	nbs, err := src.Neighbors(uint32(u))
	if err != nil {
		// An accepted-but-unpublished user (mid-insert) is a retryable
		// miss, not a client error.
		httpError(w, http.StatusNotFound, err)
		return
	}
	out := make([]neighborJSON, len(nbs))
	for i, nb := range nbs {
		out[i] = neighborJSON{ID: nb.ID, Sim: nb.Sim}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"user":      u,
		"version":   src.Version(),
		"neighbors": out,
	})
}

// queryRequest is the POST /query payload. Profile maps item IDs (JSON
// object keys are strings of the numeric ID) to ratings; Binary discards
// the ratings. Budget ≤ 0 (or omitted with a ≤ 0 server default) means
// exhaustive evaluation over every overlapping candidate — the exact
// result. Want selects "users" (default) or "items" (aggregate the top
// users' profiles into item recommendations).
type queryRequest struct {
	Profile map[uint32]float64 `json:"profile"`
	K       int                `json:"k"`
	Budget  *int               `json:"budget"`
	Binary  bool               `json:"binary"`
	Want    string             `json:"want"`
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	s.queries.Add(1)
	var req queryRequest
	if err := decodeJSON(r, &req); err != nil {
		httpError(w, requestStatus(err), err)
		return
	}
	src := s.source()
	k := req.K
	if k <= 0 {
		k = src.K()
	}
	budget := s.cfg.QueryBudget
	if req.Budget != nil {
		budget = *req.Budget
	}
	if budget <= 0 {
		budget = -1
	}
	profile := kiff.ProfileFromMap(req.Profile, req.Binary)
	switch req.Want {
	case "", "users":
		res, err := src.Query(profile, k, budget)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		out := make([]neighborJSON, len(res))
		for i, nb := range res {
			out[i] = neighborJSON{ID: nb.ID, Sim: nb.Sim}
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"version": src.Version(),
			"k":       k,
			"results": out,
		})
	case "items":
		// Two-stage recommendation: KNN over users, then score the
		// neighbors' items (similarity-weighted ratings) excluding what
		// the query profile already holds.
		nbs, err := src.Query(profile, src.K(), budget)
		if err != nil {
			httpError(w, http.StatusBadRequest, err)
			return
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"version": src.Version(),
			"k":       k,
			"results": recommendItems(src, profile, nbs, k),
		})
	default:
		httpError(w, http.StatusBadRequest, fmt.Errorf("want = %q, expected \"users\" or \"items\"", req.Want))
	}
}

type scoredItem struct {
	ID    uint32  `json:"id"`
	Score float64 `json:"score"`
}

// recommendItems aggregates the neighbors' profiles into item scores:
// score(i) = Σ over neighbors holding i of sim(neighbor) · rating — the
// classic user-based collaborative filtering step on top of the KNN
// result, restricted to items the query profile does not already hold.
// Scores accumulate in neighbor order, then profile order, and the best k
// are kept in a bounded top-k (score desc, ID asc).
func recommendItems(src *shard.View, profile kiff.Profile, nbs []kiff.Neighbor, k int) []scoredItem {
	// The neighbors' items bound the accumulator; the request's own item
	// IDs, however large, do not.
	domain := 0
	for _, nb := range nbs {
		if nb.Sim <= 0 {
			continue
		}
		if p, ok := src.Profile(nb.ID); ok && len(p.IDs) > 0 {
			domain = max(domain, int(p.IDs[len(p.IDs)-1])+1)
		}
	}
	acc := itemScoresPool.Get().(*itemScores)
	defer itemScoresPool.Put(acc)
	held, scored := acc.begin(domain)
	for _, it := range profile.IDs {
		if int(it) >= domain {
			break
		}
		acc.stamp[it] = held
	}
	for _, nb := range nbs {
		if nb.Sim <= 0 {
			continue
		}
		p, ok := src.Profile(nb.ID)
		if !ok {
			continue
		}
		for i, it := range p.IDs {
			switch acc.stamp[it] {
			case held:
				continue
			case scored: // already accumulating from an earlier neighbor
			default:
				acc.stamp[it] = scored
				acc.score[it] = 0
				acc.touched = append(acc.touched, it)
			}
			acc.score[it] += nb.Sim * p.Weight(i)
		}
	}
	n := min(k, len(acc.touched))
	top := knngraph.NewTopK(make([]kiff.Neighbor, 0, n), n)
	for _, it := range acc.touched {
		top.Push(kiff.Neighbor{ID: it, Sim: acc.score[it]})
	}
	best := top.Sorted()
	out := make([]scoredItem, len(best))
	for i, nb := range best {
		out[i] = scoredItem{ID: nb.ID, Score: nb.Sim}
	}
	return out
}

// itemScores is recommendItems' accumulator over the item space: a slot
// belongs to the current request iff its stamp is one of the request's
// two epochs (held by the query profile, or scored), so starting a
// request is an increment, not a clear.
type itemScores struct {
	stamp   []uint32
	score   []float64
	touched []uint32 // scored items, in first-touch order
	epoch   uint32
}

var itemScoresPool = sync.Pool{New: func() any { return new(itemScores) }}

// begin starts a request over items [0, domain) and returns its two
// epochs.
func (a *itemScores) begin(domain int) (held, scored uint32) {
	if domain > len(a.stamp) {
		n := max(domain, 2*len(a.stamp))
		stamp := make([]uint32, n)
		copy(stamp, a.stamp)
		a.stamp = stamp
		a.score = make([]float64, n) // a slot's score is reset on first touch
	}
	if a.epoch > math.MaxUint32-2 { // about to wrap: hard-reset the stamps
		clear(a.stamp)
		a.epoch = 0
	}
	a.epoch += 2
	a.touched = a.touched[:0]
	return a.epoch - 1, a.epoch
}

// --- Mutation handlers --------------------------------------------------

type insertRequest struct {
	Profile map[uint32]float64 `json:"profile"`
	Binary  bool               `json:"binary"`
}

func (s *Server) handleInsert(w http.ResponseWriter, r *http.Request) {
	s.inserts.Add(1)
	var req insertRequest
	if err := decodeJSON(r, &req); err != nil {
		httpError(w, requestStatus(err), err)
		return
	}
	res := s.enqueue(r, op{kind: opInsert, profile: kiff.ProfileFromMap(req.Profile, req.Binary)})
	if res.err != nil {
		httpError(w, mutationStatus(res.err), res.err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]any{
		"id":      res.id,
		"version": res.version,
	})
}

// ratingsRequest accepts either a single rating object or a batch:
// {"user":1,"item":2,"rating":3} or {"ratings":[...]}. The single form
// uses pointers so a missing field is a 400, not a silent zero-value
// mutation of user 0 / item 0.
type ratingsRequest struct {
	User    *uint32  `json:"user"`
	Item    *uint32  `json:"item"`
	Rating  *float64 `json:"rating"`
	Ratings []Rating `json:"ratings"`
}

func (s *Server) handleRatings(w http.ResponseWriter, r *http.Request) {
	s.ratings.Add(1)
	var req ratingsRequest
	if err := decodeJSON(r, &req); err != nil {
		httpError(w, requestStatus(err), err)
		return
	}
	ratings := req.Ratings
	switch {
	case ratings == nil:
		if req.User == nil || req.Item == nil || req.Rating == nil {
			httpError(w, http.StatusBadRequest, errors.New("a rating requires user, item and rating fields"))
			return
		}
		ratings = []Rating{{User: *req.User, Item: *req.Item, Rating: *req.Rating}}
	case len(ratings) == 0:
		httpError(w, http.StatusBadRequest, errors.New("empty ratings batch"))
		return
	}
	// Non-finite ratings cannot arrive here: JSON has no NaN/Infinity
	// literals and overflowing numbers fail in decodeJSON.
	res := s.enqueue(r, op{kind: opRatings, ratings: ratings})
	if res.err != nil {
		httpError(w, mutationStatus(res.err), res.err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"applied": len(ratings),
		"version": res.version,
	})
}

// requestStatus maps body-decoding failures onto HTTP statuses: an
// oversized body (MaxBytesReader tripping) is 413, everything else
// malformed is 400.
func requestStatus(err error) int {
	var tooLarge *http.MaxBytesError
	if errors.As(err, &tooLarge) {
		return http.StatusRequestEntityTooLarge
	}
	return http.StatusBadRequest
}

// mutationStatus maps writer-side failures onto HTTP statuses.
func mutationStatus(err error) int {
	switch {
	case errors.Is(err, errReadOnly):
		return http.StatusForbidden
	case errors.Is(err, ErrClosed), errors.Is(err, errQueueWait):
		return http.StatusServiceUnavailable
	case errors.Is(err, kiff.ErrWALFailStop):
		// The write path fail-stopped after a log append failure; only a
		// restart-and-replay clears it. Not the client's fault.
		return http.StatusServiceUnavailable
	default:
		return http.StatusBadRequest
	}
}

// --- Plumbing -----------------------------------------------------------

// maxBodyBytes bounds request bodies; profiles of millions of entries do
// not arrive over this API.
const maxBodyBytes = 8 << 20

func decodeJSON(r *http.Request, v any) error {
	dec := json.NewDecoder(http.MaxBytesReader(nil, r.Body, maxBodyBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("bad request body: %w", err)
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func httpError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]any{"error": err.Error()})
}
