package server

// Prometheus instrumentation for the serving layer, exposed at
// GET /metrics. Two kinds of series live in the registry:
//
//   - Live instruments (request counts, latency histograms, auth/rate
//     denials, writer batches) are updated inline on the hot path.
//   - Snapshot-sourced series (queue depth, maintenance and publication
//     counters, WAL meters, per-shard rows) are Set at scrape time from
//     the exact same sources handleStats reads — the pool's Counters,
//     WALCounters and ShardStats — so /metrics and /stats can never
//     disagree about a value they both report.
//
// Families that do not apply to a configuration (maintenance and shard
// rows on a read-only server, WAL meters without logs attached) are not
// registered at all, rather than exported as misleading zeros.

import (
	"net/http"
	"strconv"
	"time"

	"kiff/internal/metrics"
)

// latencyBuckets spans sub-millisecond snapshot reads up to multi-second
// backpressure stalls on mutations.
var latencyBuckets = []float64{0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5}

// batchSizeBuckets covers 1..MaxBatch (default 64) in powers of two.
var batchSizeBuckets = []float64{1, 2, 4, 8, 16, 32, 64, 128}

// serverMetrics bundles the registry and every instrument. Fields that
// depend on the configuration (wal*, shard*) are nil when unregistered.
type serverMetrics struct {
	s   *Server
	reg *metrics.Registry

	// Live, hot-path instruments.
	requests     *metrics.CounterVec   // endpoint, method, code class
	latency      *metrics.HistogramVec // endpoint
	authFailures *metrics.CounterVec   // reason: unauthorized | forbidden
	rateLimited  *metrics.CounterVec
	batches      *metrics.Counter
	batchSize    *metrics.Histogram

	// Scrape-time series, mirrored from the /stats sources.
	users     *metrics.Gauge
	version   *metrics.Gauge
	queueLen  *metrics.Gauge
	queueCap  *metrics.Gauge
	queries   *metrics.Counter
	neighbors *metrics.Counter
	insertReq *metrics.Counter
	ratingReq *metrics.Counter
	rejected  *metrics.Counter

	maintSimEvals *metrics.Counter
	maintInserts  *metrics.Counter
	maintRebuilds *metrics.Counter
	maintRebuilt  *metrics.Counter
	publications  *metrics.Counter
	pagesCopied   *metrics.Counter
	pagesShared   *metrics.Counter
	publishSecs   *metrics.Counter

	walAppended  *metrics.Counter
	walBytes     *metrics.Counter
	walFsyncs    *metrics.Counter
	walErrors    *metrics.Counter
	walReplayed  *metrics.Counter
	walTruncated *metrics.Counter
	walLastLSN   *metrics.Gauge

	shardUsers    *metrics.GaugeVec // shard
	shardVersion  *metrics.GaugeVec
	shardInserts  *metrics.CounterVec
	shardRebuilds *metrics.CounterVec
	shardRebuilt  *metrics.CounterVec
	shardPubs     *metrics.CounterVec
	shardCopied   *metrics.CounterVec
	shardShared   *metrics.CounterVec
}

// newServerMetrics builds the registry for a configured server. Called
// by New after the backend fields are set, so it can see which optional
// families (WAL, shards) apply.
func newServerMetrics(s *Server) *serverMetrics {
	r := metrics.NewRegistry()
	m := &serverMetrics{
		s:   s,
		reg: r,

		requests: r.NewCounter("kiffserve_http_requests_total",
			"HTTP requests served, including auth and rate-limit denials.",
			"endpoint", "method", "code"),
		latency: r.NewHistogram("kiffserve_http_request_duration_seconds",
			"Wall time per request, measured around the full middleware chain.",
			latencyBuckets, "endpoint"),
		authFailures: r.NewCounter("kiffserve_auth_failures_total",
			"Requests denied by authentication (reason: unauthorized=401, forbidden=403).",
			"reason"),
		rateLimited: r.NewCounter("kiffserve_rate_limited_total",
			"Requests denied with 429 by the token-bucket rate limiter."),
		batches: r.NewCounter("kiffserve_writer_batches_total",
			"Mutation batches applied by the writer goroutine.").With(),
		batchSize: r.NewHistogram("kiffserve_writer_batch_size",
			"Ops per applied writer batch.", batchSizeBuckets).With(),

		users: r.NewGauge("kiffserve_snapshot_users",
			"Users in the currently published snapshot.").With(),
		version: r.NewGauge("kiffserve_snapshot_version",
			"Version of the currently published snapshot.").With(),
		queueLen: r.NewGauge("kiffserve_mutation_queue_depth",
			"Mutations waiting in the writer queue.").With(),
		queueCap: r.NewGauge("kiffserve_mutation_queue_capacity",
			"Writer queue capacity; depth at capacity means mutations block (backpressure).").With(),
		queries: r.NewCounter("kiffserve_queries_total",
			"POST /query requests (matches /stats \"queries\").").With(),
		neighbors: r.NewCounter("kiffserve_neighbor_requests_total",
			"GET /neighbors requests (matches /stats \"neighbor_requests\").").With(),
		insertReq: r.NewCounter("kiffserve_insert_requests_total",
			"POST /users requests (matches /stats \"inserts\").").With(),
		ratingReq: r.NewCounter("kiffserve_rating_requests_total",
			"POST /ratings requests (matches /stats \"ratings\").").With(),
		rejected: r.NewCounter("kiffserve_rejected_total",
			"Mutations rejected while waiting for the queue (matches /stats \"rejected\").").With(),
	}
	// Denial counters start visible at 0: an operator alerting on
	// rate(kiffserve_auth_failures_total) must see the series before the
	// first denial, not a gap.
	m.authFailures.With("unauthorized")
	m.authFailures.With("forbidden")
	m.rateLimited.With()
	// The boot split never changes after New, so it is set once, from
	// the values /stats reports.
	boot := r.NewGauge("kiffserve_boot_seconds",
		"Wall time of each cold-start phase: load, build, wal (matches /stats \"boot\").", "phase")
	boot.With("load").Set(float64(s.cfg.Boot.Load.Nanoseconds()) / 1e9)
	boot.With("build").Set(float64(s.cfg.Boot.Build.Nanoseconds()) / 1e9)
	boot.With("wal").Set(float64(s.cfg.Boot.WAL.Nanoseconds()) / 1e9)
	if s.pool != nil {
		m.maintSimEvals = r.NewCounter("kiffserve_maintain_sim_evals_total",
			"Similarity evaluations spent on graph maintenance.").With()
		m.maintInserts = r.NewCounter("kiffserve_maintain_inserts_total",
			"Users inserted into the maintained graph.").With()
		m.maintRebuilds = r.NewCounter("kiffserve_maintain_rebuilds_total",
			"Incremental rebuild passes run by the writer.").With()
		m.maintRebuilt = r.NewCounter("kiffserve_maintain_rebuilt_users_total",
			"Users refreshed by rebuild passes.").With()
		m.publications = r.NewCounter("kiffserve_publications_total",
			"Copy-on-write snapshot publications.").With()
		m.pagesCopied = r.NewCounter("kiffserve_pages_copied_total",
			"Pages rewritten during publications (held dirty rows).").With()
		m.pagesShared = r.NewCounter("kiffserve_pages_shared_total",
			"Pages shared with the previous snapshot during publications.").With()
		m.publishSecs = r.NewCounter("kiffserve_publish_seconds_total",
			"Cumulative wall time spent publishing snapshots.").With()
		m.shardUsers = r.NewGauge("kiffserve_shard_users",
			"Users owned by the shard.", "shard")
		m.shardVersion = r.NewGauge("kiffserve_shard_version",
			"Publication version of the shard.", "shard")
		m.shardInserts = r.NewCounter("kiffserve_shard_inserts_total",
			"Users inserted into the shard.", "shard")
		m.shardRebuilds = r.NewCounter("kiffserve_shard_rebuilds_total",
			"Rebuild passes run on the shard.", "shard")
		m.shardRebuilt = r.NewCounter("kiffserve_shard_rebuilt_users_total",
			"Users refreshed by the shard's rebuild passes.", "shard")
		m.shardPubs = r.NewCounter("kiffserve_shard_publications_total",
			"Snapshot publications by the shard.", "shard")
		m.shardCopied = r.NewCounter("kiffserve_shard_pages_copied_total",
			"Pages rewritten by the shard's publications.", "shard")
		m.shardShared = r.NewCounter("kiffserve_shard_pages_shared_total",
			"Pages shared by the shard's publications.", "shard")
	}
	if s.walAttached() {
		m.walAppended = r.NewCounter("kiffserve_wal_appends_total",
			"Records appended to the write-ahead log since boot.").With()
		m.walBytes = r.NewCounter("kiffserve_wal_appended_bytes_total",
			"Bytes appended to the write-ahead log since boot.").With()
		m.walFsyncs = r.NewCounter("kiffserve_wal_fsyncs_total",
			"fsync calls issued by the write-ahead log.").With()
		m.walErrors = r.NewCounter("kiffserve_wal_append_errors_total",
			"Append failures; any nonzero value fail-stops the write path.").With()
		m.walReplayed = r.NewCounter("kiffserve_wal_replayed_total",
			"Records replayed from the log at startup.").With()
		m.walTruncated = r.NewCounter("kiffserve_wal_truncated_bytes_total",
			"Torn-tail bytes discarded by recovery at startup.").With()
		m.walLastLSN = r.NewGauge("kiffserve_wal_last_lsn",
			"Sum of the per-shard log LSNs (a monotonic mutation counter).").With()
	}
	r.OnScrape(m.collect)
	return m
}

// collect refreshes every snapshot-sourced series. Runs at the start of
// each scrape, reading the same atomics and counter snapshots /stats
// reads — never the writer's live state.
func (m *serverMetrics) collect() {
	s := m.s
	src := s.source()
	m.users.Set(float64(src.NumUsers()))
	m.version.Set(float64(src.Version()))
	m.queueLen.Set(float64(len(s.ops)))
	m.queueCap.Set(float64(cap(s.ops)))
	m.queries.Set(float64(s.queries.Load()))
	m.neighbors.Set(float64(s.neighborGets.Load()))
	m.insertReq.Set(float64(s.inserts.Load()))
	m.ratingReq.Set(float64(s.ratings.Load()))
	m.rejected.Set(float64(s.rejected.Load()))
	if m.maintSimEvals != nil {
		c := s.pool.Counters()
		m.maintSimEvals.Set(float64(c.SimEvals))
		m.maintInserts.Set(float64(c.Inserts))
		m.maintRebuilds.Set(float64(c.Rebuilds))
		m.maintRebuilt.Set(float64(c.RebuiltUsers))
		m.publications.Set(float64(c.Publishes))
		m.pagesCopied.Set(float64(c.PagesCopied))
		m.pagesShared.Set(float64(c.PagesShared))
		m.publishSecs.Set(float64(c.PublishNs) / 1e9)
	}
	if m.walAppended != nil {
		c := s.pool.WALCounters()
		m.walAppended.Set(float64(c.Appended))
		m.walBytes.Set(float64(c.AppendedBytes))
		m.walFsyncs.Set(float64(c.Fsyncs))
		m.walErrors.Set(float64(c.AppendErrors))
		m.walReplayed.Set(float64(c.Replayed))
		m.walTruncated.Set(float64(c.TruncatedBytes))
		m.walLastLSN.Set(float64(c.LastLSN))
	}
	if m.shardUsers != nil {
		for _, st := range s.pool.ShardStats() {
			id := strconv.Itoa(st.Shard)
			m.shardUsers.With(id).Set(float64(st.Users))
			m.shardVersion.With(id).Set(float64(st.Version))
			m.shardInserts.With(id).Set(float64(st.Counters.Inserts))
			m.shardRebuilds.With(id).Set(float64(st.Counters.Rebuilds))
			m.shardRebuilt.With(id).Set(float64(st.Counters.RebuiltUsers))
			m.shardPubs.With(id).Set(float64(st.Counters.Publishes))
			m.shardCopied.With(id).Set(float64(st.Counters.PagesCopied))
			m.shardShared.With(id).Set(float64(st.Counters.PagesShared))
		}
	}
}

// endpointLabel normalizes a request path to a bounded label set. The
// middleware wraps outside the mux, so ServeMux pattern matching has not
// run yet; unknown paths collapse to "other" to cap series cardinality.
func endpointLabel(path string) string {
	if len(path) >= len("/neighbors/") && path[:len("/neighbors/")] == "/neighbors/" {
		return "/neighbors"
	}
	switch path {
	case "/healthz", "/stats", "/metrics", "/query", "/users", "/ratings", "/checkpoint", "/faults":
		return path
	}
	return "other"
}

// codeClass buckets a status code for the request counter's code label.
func codeClass(status int) string {
	switch {
	case status < 200:
		return "1xx"
	case status < 300:
		return "2xx"
	case status < 400:
		return "3xx"
	case status < 500:
		return "4xx"
	default:
		return "5xx"
	}
}

// withInstrumentation is the outermost middleware: every request —
// served, denied, or malformed — lands in the request counter and the
// latency histogram.
func (s *Server) withInstrumentation(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		rec := &statusRecorder{ResponseWriter: w}
		start := time.Now()
		next.ServeHTTP(rec, r)
		ep := endpointLabel(r.URL.Path)
		s.metrics.requests.With(ep, r.Method, codeClass(rec.status())).Inc()
		s.metrics.latency.With(ep).Observe(time.Since(start).Seconds())
	})
}
