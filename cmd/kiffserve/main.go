// Command kiffserve is the HTTP serving front-end: it loads (or
// cold-builds) a KNN graph into a maintainer pool and exposes neighbor
// lookups, profile queries and mutations over HTTP (see internal/server
// for the endpoint contract).
//
// Every mutable server has one boot sequence — source → pool → optional
// write-ahead log → serve — whatever the source: a cold build from an
// edge list (-in) or a dataset checkpoint (-data), a graph checkpoint
// seeding one maintainer (-graph with -data), or a pool checkpoint
// (-pool, any shard count). -shards N (default 1) partitions a cold
// build across N maintainers behind the same HTTP API; an unsharded
// server is simply a one-shard pool. -readonly pins a static view of the
// source instead of starting a writer (mutation endpoints return 403);
// checkpoint sources are then served straight from their mapped files.
//
// Serve a saved checkpoint, zero-copy via mmap (build once with kiffknn
// -save, serve many):
//
//	kiffknn -in ratings.tsv -k 20 -save graph.kfg -save-data data.kfd -o /dev/null
//	kiffserve -graph graph.kfg -data data.kfd -readonly -addr :8080
//
// -mmap=false forces the heap decoders. Checkpoints — -save-pool DIR
// after construction, POST /checkpoint while serving, the final save of
// a graceful shutdown — are pool checkpoint directories (per-shard
// graph.i.kfg/data.i.kfd plus a manifest recording k and the metric),
// and -pool DIR restarts from one without rebuilding. -metric defaults
// to cosine for cold builds and to the checkpoint's own metric for
// -pool; naming another metric for a checkpoint is refused:
//
//	kiffserve -data data.kfd -shards 4 -save-pool pool/ -addr :8080
//	kiffserve -pool pool/ -addr :8080
//
// Crash-lossless serving: -wal DIR appends every mutation to a
// write-ahead log (wal.<i>.kfl, one per shard, next to a wal.shards
// marker holding the shard count) before applying it, so an
// acknowledged write survives even a SIGKILL. On start, when
// -checkpoint is also set, the server picks the newest complete
// checkpoint generation itself and replays the logs on top of it; a
// torn final record (power cut mid-append) is truncated. POST
// /checkpoint rotates the logs; -wal-sync trades fsync-per-append
// durability against throughput:
//
//	kiffserve -in ratings.tsv -checkpoint ckpts/ -wal wal/ -addr :8080
//	# ... mutations, maybe a crash ...
//	kiffserve -in ratings.tsv -checkpoint ckpts/ -wal wal/ -addr :8080  # replays, loses nothing
//
// Production hardening (all opt-in; see docs/OPERATIONS.md): -api-keys
// FILE enables API-key authentication with read/write scopes (401/403),
// -rate-limit and -rate-burst add per-key token-bucket admission
// control (429 + Retry-After), and -log-requests emits one structured
// JSON access-log line per request. GET /metrics always serves the
// Prometheus text-format meters:
//
//	kiffserve -in ratings.tsv -api-keys keys.txt -rate-limit 100 -rate-burst 200 -addr :8080
//	curl -H 'Authorization: Bearer <key>' localhost:8080/metrics
//
//	curl localhost:8080/neighbors/42
//	curl -X POST localhost:8080/query -d '{"profile":{"7":3,"42":5},"k":10}'
//	curl -X POST localhost:8080/users -d '{"profile":{"42":5}}'
//	curl -X POST localhost:8080/ratings -d '{"user":3,"item":42,"rating":4}'
//	curl localhost:8080/stats
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"kiff"
	"kiff/internal/server"
	"kiff/internal/shard"
	"kiff/internal/wal"
)

func main() {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, os.Args[1:], os.Stderr, nil); err != nil {
		fmt.Fprintf(os.Stderr, "kiffserve: %v\n", err)
		os.Exit(1)
	}
}

// run builds the serving stack and blocks until ctx is canceled or the
// listener fails. When ready is non-nil the bound address is sent on it
// once the listener is up (the in-process test hook).
func run(ctx context.Context, args []string, stderr io.Writer, ready chan<- string) error {
	fs := flag.NewFlagSet("kiffserve", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		addr      = fs.String("addr", ":8080", "listen address")
		graph     = fs.String("graph", "", "binary graph checkpoint (kiffknn -save) seeding one maintainer; requires -data and one shard")
		data      = fs.String("data", "", "binary dataset checkpoint (SaveDataset)")
		in        = fs.String("in", "", "edge list to load and cold-build from (alternative to -data)")
		binary    = fs.Bool("binary", false, "ignore the rating column of -in")
		useMmap   = fs.Bool("mmap", true, "load checkpoints through the zero-copy mmap path")
		readonly  = fs.Bool("readonly", false, "serve a static view of the source; mutation endpoints return 403")
		k         = fs.Int("k", 20, "neighborhood size for cold builds (checkpoints carry their own)")
		metric    = fs.String("metric", "", "similarity metric: "+strings.Join(kiff.Metrics(), ", ")+" (default: cosine, or the metric a -pool checkpoint records)")
		budget    = fs.Int("budget", 0, "default similarity-eval budget per query (0 = exact)")
		queue     = fs.Int("queue", 256, "mutation queue depth (full queue = backpressure)")
		batch     = fs.Int("batch", 64, "max mutations applied per writer batch")
		ckptDir   = fs.String("checkpoint", "", "enable POST /checkpoint into fresh subdirectories of this directory; a graceful shutdown saves a final checkpoint under <dir>/final")
		workers   = fs.Int("workers", 0, "cold-build worker goroutines (0 = all CPUs)")
		shards    = fs.Int("shards", 1, "partition a cold build's users across this many maintainers")
		pool      = fs.String("pool", "", "pool checkpoint directory to restart from (see -save-pool, POST /checkpoint)")
		savePool  = fs.String("save-pool", "", "checkpoint the pool to this directory after construction")
		walDir    = fs.String("wal", "", "write-ahead log directory: append every mutation before applying it, replay on start (crash-lossless mutations)")
		walSync   = fs.String("wal-sync", "always", "WAL fsync policy: always, never, or a flush interval like 100ms")
		apiKeys   = fs.String("api-keys", "", "API keys file (scope:key[:burst[:rate]] per line); enables authentication on every endpoint except /healthz")
		rateRPS   = fs.Float64("rate-limit", 0, "per-key token-bucket rate limit in requests/second (0 = unlimited)")
		rateBurst = fs.Int("rate-burst", 0, "token-bucket capacity when -rate-limit is set (0 = same as -rate-limit)")
		logReqs   = fs.Bool("log-requests", false, "emit one structured JSON access-log line per request to stderr")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	switch {
	case *rateBurst > 0 && *rateRPS <= 0:
		return fmt.Errorf("-rate-burst requires -rate-limit > 0")
	case *shards < 1 || *shards > shard.MaxShards:
		return fmt.Errorf("-shards %d: want 1..%d", *shards, shard.MaxShards)
	case *graph != "" && *shards != 1:
		return fmt.Errorf("-graph seeds a single maintainer and requires -shards 1 (restart a sharded checkpoint with -pool)")
	case *graph != "" && *data == "":
		return fmt.Errorf("-graph requires -data")
	case *readonly && *walDir != "":
		return fmt.Errorf("-wal requires a mutable server (drop -readonly)")
	case *readonly && *ckptDir != "":
		return fmt.Errorf("-checkpoint requires a mutable server (drop -readonly)")
	case *readonly && *savePool != "":
		return fmt.Errorf("-save-pool requires a mutable server (drop -readonly)")
	case *walDir != "" && *savePool != "":
		// Pool.Save rotates the shard logs against the saved directory,
		// but the boot scan only considers -checkpoint generations — a
		// rotation against -save-pool would strand the discarded
		// records. Checkpoint through the server instead.
		return fmt.Errorf("-save-pool cannot be combined with -wal (checkpoint via POST /checkpoint instead)")
	case *pool == "" && *data == "" && *in == "":
		fs.Usage()
		return fmt.Errorf("a data source is required: -pool, -data (with or without -graph) or -in")
	}
	opts := kiff.Options{K: *k, Metric: *metric, Workers: *workers}
	faults := faultsFromEnv(stderr)

	cfg := server.Config{
		QueryBudget:   *budget,
		QueueDepth:    *queue,
		MaxBatch:      *batch,
		CheckpointDir: *ckptDir,
		Faults:        faults,
		Logf: func(format string, args ...any) {
			fmt.Fprintf(stderr, format+"\n", args...)
		},
		RateLimit:   *rateRPS,
		RateBurst:   *rateBurst,
		LogRequests: *logReqs,
	}
	if *apiKeys != "" {
		keys, kerr := server.LoadAPIKeys(*apiKeys)
		if kerr != nil {
			return fmt.Errorf("-api-keys: %w", kerr)
		}
		cfg.APIKeys = keys
		fmt.Fprintf(stderr, "kiffserve: authentication enabled (%d keys)\n", len(keys))
	}
	boot := &cfg.Boot
	src := source{pool: *pool, graph: *graph, data: *data, in: *in, binary: *binary, mmap: *useMmap, shards: *shards, opts: opts, stderr: stderr, boot: boot}

	if *readonly {
		v, err := src.openView()
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "kiffserve: read-only view over %d users\n", v.NumUsers())
		cfg.Static = v
		logBoot(stderr, cfg.Boot)
		return serve(ctx, cfg, *addr, stderr, ready)
	}

	var wopts wal.Options
	if *walDir != "" {
		pol, iv, perr := wal.ParseSyncPolicy(*walSync)
		if perr != nil {
			return fmt.Errorf("-wal-sync: %w", perr)
		}
		wopts = wal.Options{Sync: pol, SyncInterval: iv, TestHook: walTearHook(faults)}
		if err := os.MkdirAll(*walDir, 0o755); err != nil {
			return fmt.Errorf("-wal: %w", err)
		}
		// With both -wal and -checkpoint the server owns its restart
		// story: the newest complete checkpoint generation supersedes the
		// source flags, which describe the cold start only — the
		// checkpoint is strictly newer than any of them, and the logs were
		// rotated against it.
		if *ckptDir != "" {
			if latest, ok := server.LatestCheckpoint(*ckptDir); ok {
				fmt.Fprintf(stderr, "kiffserve: resuming from checkpoint %s\n", latest)
				src = source{pool: latest, mmap: *useMmap, opts: opts, stderr: stderr, boot: boot}
			}
		}
	}
	p, err := src.openPool()
	if err != nil {
		return err
	}
	if *walDir != "" {
		start := time.Now()
		st, err := p.OpenWAL(*walDir, wopts)
		boot.WAL = time.Since(start)
		if err != nil {
			return fmt.Errorf("wal: %w", err)
		}
		fmt.Fprintf(stderr, "kiffserve: wal attached: replayed %d records, truncated %d torn bytes\n",
			st.Replayed, st.TruncatedBytes)
	}
	if *savePool != "" {
		if err := p.Save(*savePool); err != nil {
			return fmt.Errorf("save pool: %w", err)
		}
		fmt.Fprintf(stderr, "kiffserve: pool checkpointed to %s\n", *savePool)
	}
	cfg.Pool = p
	logBoot(stderr, cfg.Boot)
	return serve(ctx, cfg, *addr, stderr, ready)
}

// logBoot reports the cold start's split on stderr.
func logBoot(stderr io.Writer, b server.Boot) {
	fmt.Fprintf(stderr, "kiffserve: boot: load %v, build %v, wal %v\n", b.Load, b.Build, b.WAL)
}

// since adds the time elapsed since start to *phase; deferred as
// defer since(&phase, time.Now()), it times the rest of the function.
func since(phase *time.Duration, start time.Time) { *phase += time.Since(start) }

// source is the data source the flags name: a pool checkpoint, a graph
// checkpoint over a dataset checkpoint, or a dataset (checkpoint or edge
// list) to cold-build from. Opening it adds the time each boot phase
// takes to boot.
type source struct {
	pool, graph, data, in string
	binary, mmap          bool
	shards                int
	opts                  kiff.Options
	stderr                io.Writer
	boot                  *server.Boot
}

// openPool assembles the mutable backend from the source.
func (s source) openPool() (*kiff.ShardedMaintainer, error) {
	if s.pool != "" {
		load := kiff.LoadShardedMaintainer
		if s.mmap {
			load = kiff.LoadShardedMaintainerMapped
		}
		// A checkpoint carries its own k, and its own metric unless
		// -metric names one (which must then match).
		defer since(&s.boot.Load, time.Now())
		p, err := load(s.pool, kiff.Options{Metric: s.opts.Metric, Workers: s.opts.Workers})
		if err != nil {
			return nil, fmt.Errorf("load pool: %w", err)
		}
		fmt.Fprintf(s.stderr, "kiffserve: pool %s loaded: %d shards, %d users, k=%d, metric %s (mmap=%v, construction skipped)\n",
			s.pool, p.NumShards(), p.NumUsers(), p.K(), p.Metric(), s.mmap)
		return p, nil
	}
	ds, err := s.dataset()
	if err != nil {
		return nil, err
	}
	if s.graph != "" {
		g, err := s.loadGraph()
		if err != nil {
			return nil, err
		}
		o := s.opts
		o.K = 0 // adopt the checkpoint's k
		defer since(&s.boot.Build, time.Now())
		m, err := kiff.NewMaintainerFromGraph(ds, g, o)
		if err != nil {
			return nil, err
		}
		fmt.Fprintf(s.stderr, "kiffserve: maintainer seeded from checkpoint (no rebuild)\n")
		return kiff.OneShardPool(m)
	}
	start := time.Now()
	p, err := kiff.NewShardedMaintainer(ds, s.shards, s.opts)
	since(&s.boot.Build, start)
	if err != nil {
		return nil, fmt.Errorf("cold build: %w", err)
	}
	fmt.Fprintf(s.stderr, "kiffserve: cold-built %d-shard pool over %d users (k=%d) in %v\n",
		p.NumShards(), p.NumUsers(), p.K(), s.boot.Build)
	return p, nil
}

// openView pins the read-only view of the source. Checkpoints are served
// straight from their (mapped) files; other sources are cold-built.
func (s source) openView() (*shard.View, error) {
	switch {
	case s.pool != "":
		defer since(&s.boot.Load, time.Now())
		v, err := kiff.LoadShardedView(s.pool, kiff.Options{Metric: s.opts.Metric}, s.mmap)
		if err != nil {
			return nil, fmt.Errorf("load pool: %w", err)
		}
		return v, nil
	case s.graph != "":
		ds, err := s.dataset()
		if err != nil {
			return nil, err
		}
		g, err := s.loadGraph()
		if err != nil {
			return nil, err
		}
		defer since(&s.boot.Build, time.Now())
		snap, err := kiff.NewSnapshot(g, ds, s.opts)
		if err != nil {
			return nil, err
		}
		return shard.NewView([]shard.Reader{snap}, snap.NumUsers())
	}
	p, err := s.openPool()
	if err != nil {
		return nil, err
	}
	return p.View(), nil
}

// dataset loads the -data checkpoint (mapped or heap) or the -in edge
// list. A mapping lives for the process lifetime; the kernel reclaims it
// at exit.
func (s source) dataset() (*kiff.Dataset, error) {
	defer since(&s.boot.Load, time.Now())
	switch {
	case s.data != "" && s.mmap:
		md, err := kiff.LoadDatasetMapped(s.data)
		if err != nil {
			return nil, fmt.Errorf("load dataset: %w", err)
		}
		fmt.Fprintf(s.stderr, "kiffserve: dataset %s loaded (mmap=%v)\n", s.data, md.Mapped())
		return md.Dataset(), nil
	case s.data != "":
		ds, err := kiff.LoadDataset(s.data)
		if err != nil {
			return nil, fmt.Errorf("load dataset: %w", err)
		}
		fmt.Fprintf(s.stderr, "kiffserve: dataset %s loaded (heap)\n", s.data)
		return ds, nil
	}
	ds, err := kiff.LoadFile(s.in, kiff.LoadOptions{Binary: s.binary})
	if err != nil {
		return nil, fmt.Errorf("load edge list: %w", err)
	}
	fmt.Fprintf(s.stderr, "kiffserve: loaded %s\n", ds.Stats())
	return ds, nil
}

// loadGraph loads the -graph checkpoint (mapped or heap).
func (s source) loadGraph() (*kiff.Graph, error) {
	defer since(&s.boot.Load, time.Now())
	if s.mmap {
		mg, err := kiff.LoadGraphMapped(s.graph)
		if err != nil {
			return nil, fmt.Errorf("load graph: %w", err)
		}
		g := mg.Graph()
		fmt.Fprintf(s.stderr, "kiffserve: graph %s loaded: k=%d, %d users, %d edges (mmap=%v, construction skipped)\n",
			s.graph, g.K(), g.NumUsers(), g.NumEdges(), mg.Mapped())
		return g, nil
	}
	g, err := kiff.LoadGraph(s.graph)
	if err != nil {
		return nil, fmt.Errorf("load graph: %w", err)
	}
	fmt.Fprintf(s.stderr, "kiffserve: graph %s loaded: k=%d, %d users, %d edges (heap, construction skipped)\n",
		s.graph, g.K(), g.NumUsers(), g.NumEdges())
	return g, nil
}

// serve runs the HTTP front-end over the assembled serving source until
// ctx is canceled or the listener fails.
func serve(ctx context.Context, cfg server.Config, addr string, stderr io.Writer, ready chan<- string) error {
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}

	// --- Serve ----------------------------------------------------------
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	fmt.Fprintf(stderr, "kiffserve: serving on http://%s\n", ln.Addr())
	if ready != nil {
		ready <- ln.Addr().String()
	}
	httpSrv := &http.Server{
		Handler:           srv.Handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}
	shutdownErr := make(chan error, 1)
	go func() {
		<-ctx.Done()
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownErr <- httpSrv.Shutdown(sctx)
	}()
	err = httpSrv.Serve(ln)
	if err == http.ErrServerClosed {
		// Graceful path: wait for in-flight requests, then stop the writer.
		err = <-shutdownErr
	}
	if cerr := srv.Close(); err == nil {
		err = cerr
	}
	switch {
	case cfg.Pool != nil && cfg.Pool.WALAttached():
		// The logs already hold every acknowledged mutation (append →
		// apply → ack), so a logged server takes no final checkpoint —
		// the next boot replays instead. SaveFinal would in fact refuse:
		// saving rotates the logs against a directory the boot scan never
		// considers.
		if cerr := cfg.Pool.CloseWAL(); err == nil {
			err = cerr
		}
		fmt.Fprintf(stderr, "kiffserve: wal closed (boot replays it; no final checkpoint needed)\n")
	case cfg.Pool != nil && cfg.CheckpointDir != "":
		// Close flushed every accepted mutation, so this final checkpoint
		// contains everything the server acknowledged — the reason a
		// SIGTERM never loses writes when -checkpoint is set.
		final := filepath.Join(cfg.CheckpointDir, "final")
		if serr := srv.SaveFinal(final); serr != nil {
			if err == nil {
				err = fmt.Errorf("final checkpoint: %w", serr)
			}
		} else {
			fmt.Fprintf(stderr, "kiffserve: final checkpoint saved to %s\n", final)
		}
	}
	fmt.Fprintf(stderr, "kiffserve: shut down\n")
	return err
}
