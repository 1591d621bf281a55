// Command kiffload is the repository's end-to-end benchmark: an
// open-loop HTTP load generator that builds kiffserve from the working
// tree, serves a synthetic fixture with it, drives it over two
// keep-alive connections on a fixed arrival schedule, checks every
// answer, and prints each metric by name and unit.
//
//	cd cmd/kiffload && go run . -workload all -seed 1 -out result.json
//	bash cmd/kiffload/run.sh --workload read-dense --seed 1 --seconds 20 --trace 0
//
// A run is: fixture generation, several cold starts of the server (the
// median is setup_s), a 64-profile exact-answer probe, a warm-up at the
// nominal rate, then three ladder steps (low, nominal, high). Latency
// metrics come from the nominal step and are timed from each request's
// scheduled send time, so a stall is charged to every request queued
// behind it. After traffic stops, the served graph's recall is measured
// against the exact top-k over the fixture plus every acknowledged
// mutation.
//
// With -trace 1 the same run also replays the nominal step's requests
// in-process, one at a time, with a span around every public call, and
// prints the per-layer metrics instead of the end-to-end ones. The spans
// are written to -trace-out. See README.md for every metric.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"sync/atomic"
	"time"

	"kiff"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintf(os.Stderr, "kiffload: %v\n", err)
		os.Exit(1)
	}
}

// fixtureSeed generates every fixture (kiffgen's default seed). The
// gowalla generator's heavy tail makes set-up time and memory differ by
// a third between seeds, so the fixture stays fixed and -seed drives
// the op stream, the probe panel and the recall sample.
const fixtureSeed = 42

// config is one invocation's settings.
type config struct {
	Seed      int64
	Seconds   float64 // the three ladder steps together
	Warmup    float64 // seconds at the nominal rate before the ladder
	SetupRuns int     // recorded cold starts; setup_s is their median
	Trace     bool
	TraceOut  string
	Workdir   string
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("kiffload", flag.ContinueOnError)
	var (
		name     = fs.String("workload", "all", "workload to run, or all")
		seed     = fs.Int64("seed", 1, "seed of the op stream, the probe panel and the recall sample")
		seconds  = fs.Float64("seconds", 20, "measured seconds per workload: the low, nominal and high steps take 1/5, 3/5 and 1/5")
		trace    = fs.Int("trace", 0, "1 = replay the nominal step in-process with spans and report per-layer metrics")
		traceOut = fs.String("trace-out", "", "where -trace 1 writes its spans (default: <workdir>/spans-<workload>.json)")
		out      = fs.String("out", "", "also write the results, keyed by workload, to this JSON file")
		workdir  = fs.String("workdir", filepath.Join(".bench_build", "kiffload"), "scratch directory for the server binary, fixtures and logs")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace %d: want 0 or 1", *trace)
	}
	if *seconds < 4 {
		return fmt.Errorf("-seconds %v: want at least 4", *seconds)
	}
	runtime.GOMAXPROCS(min(2, runtime.GOMAXPROCS(0)))
	cfg := config{Seed: *seed, Seconds: *seconds, Warmup: 5, SetupRuns: 5, Trace: *trace == 1, TraceOut: *traceOut}
	wd, err := filepath.Abs(*workdir)
	if err != nil {
		return err
	}
	cfg.Workdir = wd

	var selected []Workload
	if *name == "all" {
		selected = workloads
	} else {
		w, err := workloadByName(*name)
		if err != nil {
			return err
		}
		selected = []Workload{w}
	}
	root, err := repoRoot()
	if err != nil {
		return err
	}
	if err := os.MkdirAll(wd, 0o755); err != nil {
		return err
	}
	bin, err := buildServer(root, wd)
	if err != nil {
		return err
	}

	results := map[string]*report{}
	var last *report
	for _, w := range selected {
		start := time.Now()
		rep, err := runWorkload(w, bin, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		rep.print(os.Stderr, w.Name, time.Since(start))
		results[w.Name] = rep
		last = rep
	}
	if *out != "" {
		raw, err := json.MarshalIndent(results, "", "  ")
		if err != nil {
			return err
		}
		if err := os.WriteFile(*out, append(raw, '\n'), 0o644); err != nil {
			return err
		}
	}
	line := last
	if len(selected) > 1 {
		line = combine(results)
	}
	raw, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(stdout, "%s\n", raw)
	if !line.Correct {
		return fmt.Errorf("correctness check failed")
	}
	return nil
}

// logged counts logf calls, so that a run with many failed requests
// prints only the first few.
var logged atomic.Int64

// logf reports one failed request or call on stderr.
func logf(format string, args ...any) {
	if logged.Add(1) <= 20 {
		fmt.Fprintf(os.Stderr, "kiffload: "+format+"\n", args...)
	}
}

// metricValue is one reported metric.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is the result line of one run.
type report struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
	// Notes are the human-readable extras printed to stderr only.
	notes []string
	all   map[string]float64
}

// combine folds several workloads' reports into one line, metric names
// prefixed by workload.
func combine(rs map[string]*report) *report {
	out := &report{Correct: true, Metrics: map[string]metricValue{}}
	for name, r := range rs {
		out.Correct = out.Correct && r.Correct
		out.Attempted += r.Attempted
		out.Failed += r.Failed
		for m, v := range r.Metrics {
			out.Metrics[name+"/"+m] = v
		}
	}
	return out
}

func (r *report) print(w io.Writer, name string, wall time.Duration) {
	fmt.Fprintf(w, "== %s: correct=%v attempted=%d failed=%d wall=%.1fs\n", name, r.Correct, r.Attempted, r.Failed, wall.Seconds())
	names := make([]string, 0, len(r.all))
	for n := range r.all {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(w, "  %-42s %14s %s\n", n, strconv.FormatFloat(r.all[n], 'g', 6, 64), unitOf(n))
	}
	for _, n := range r.notes {
		fmt.Fprintf(w, "  note: %s\n", n)
	}
}

// runWorkload performs one complete run of a workload.
func runWorkload(w Workload, bin string, cfg config) (*report, error) {
	rep := &report{Correct: true, Metrics: map[string]metricValue{}, all: map[string]float64{}}
	dir := filepath.Join(cfg.Workdir, fmt.Sprintf("%s-%d-%d", w.Name, cfg.Seed, os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	// Fixture: the kiffgen code path, written as the edge list the server
	// loads, and loaded back so that both sides number users and items
	// the same way.
	gen, err := kiff.GeneratePreset(w.Preset, w.Scale, fixtureSeed)
	if err != nil {
		return nil, err
	}
	fixturePath := filepath.Join(dir, "fixture.tsv")
	if err := writeFixture(fixturePath, gen); err != nil {
		return nil, err
	}
	fixture, err := kiff.LoadFile(fixturePath, kiff.LoadOptions{})
	if err != nil {
		return nil, err
	}
	sched := ladder(w.Rates, cfg.Warmup, cfg.Seconds)
	ops := generateOps(w, fixture, cfg.Seed, len(sched.Due))

	// Set-up: several cold starts; the last server stays up. The first
	// start runs a freshly written binary and fixture and is slower than
	// the rest by up to a half, so it is not recorded.
	var (
		srv         *server
		setups, rss []float64
	)
	for i := 0; i <= cfg.SetupRuns; i++ {
		args := []string{"-in", fixturePath, "-k", strconv.Itoa(serverK)}
		if w.Shards > 0 {
			args = append(args, "-shards", strconv.Itoa(w.Shards))
		}
		if w.WAL {
			args = append(args, "-wal", filepath.Join(dir, fmt.Sprintf("wal-%d", i)), "-wal-sync", "always")
		}
		s, took, err := startServer(bin, args, 120*time.Second)
		if err != nil {
			return nil, err
		}
		if i == cfg.SetupRuns {
			srv = s
			setups = append(setups, took.Seconds())
			break
		}
		mb, rerr := s.peakRSSMB()
		if err := errors.Join(rerr, s.stop()); err != nil {
			return nil, err
		}
		if i > 0 {
			setups = append(setups, took.Seconds())
			rss = append(rss, mb)
		}
	}
	defer func() {
		if srv != nil {
			srv.kill()
		}
	}()
	rep.set("setup_s", median(setups))
	rep.notes = append(rep.notes, fmt.Sprintf("cold starts (s): %.3f", setups))

	// Correctness probe before any write.
	ctl := &httpConn{addr: srv.addr}
	defer ctl.Close()
	sent, err := probe(ctl, w, fixture, cfg.Seed, 64)
	rep.Attempted += sent
	if err != nil {
		rep.fail("probe: %v", err)
	}

	// Load.
	mdl := newModel(fixture, ops)
	conns := []sender{&httpConn{addr: srv.addr}, &httpConn{addr: srv.addr}}
	clk := newRealClock()
	monc := make(chan *monitor, 1)
	go func() { monc <- runMonitor(srv.addr, sched, clk) }()
	res := drive(ops, sched, clk, conns, mdl.check)
	mon := <-monc
	for _, c := range conns {
		c.(*httpConn).Close()
	}
	if mon.err != nil {
		rep.fail("monitor: %v", mon.err)
	}
	for i := range res {
		if res[i].Sent {
			rep.Attempted++
			if !res[i].OK {
				rep.Failed++
			}
		}
	}
	if rep.Failed > 0 {
		rep.fail("%d of %d load requests failed their check", rep.Failed, rep.Attempted)
	}
	mb, err := srv.peakRSSMB()
	if err != nil {
		return nil, err
	}
	rep.set("rss_peak_mb", median(append(rss, mb)))

	// Graph quality over the final state.
	final, err := mdl.finalDataset()
	if err != nil {
		rep.fail("final state: %v", err)
		rep.set("graph_recall", 0)
	} else {
		recall, sent, err := graphRecall(ctl, final, serverK, 500, cfg.Seed)
		rep.Attempted += sent
		if err != nil {
			rep.fail("recall: %v", err)
		}
		rep.set("graph_recall", recall)
		if floor := 0.9 * calibrated(w.Name, "graph_recall"); recall < floor {
			rep.fail("graph_recall %.4f below 0.9 × calibrated (%.4f)", recall, floor)
		}
	}
	if err := srv.stop(); err != nil {
		rep.fail("%v", err)
	}
	srv = nil

	nom := sched.phaseIndex("nominal")
	summarize(rep, fixture, ops, sched, res, mon, nom)

	if cfg.Trace {
		ph := sched.Phases[nom]
		tr, err := replay(w, fixturePath, dir, ops[ph.First:ph.First+ph.Len])
		if err != nil {
			return nil, fmt.Errorf("trace: %w", err)
		}
		for n, v := range tr.metrics {
			rep.set(n, v)
		}
		for kind, name := range map[opKind]string{opQueryUsers: "query", opNeighbors: "neighbors"} {
			handler := rep.all["server."+name+"_handler_mean_ms"] * 1000
			residual := 0.0
			if handler > 0 {
				residual = 100 * (1 - tr.readSpan[kind]/handler)
			}
			rep.set("trace."+name+"_residual_pct", residual)
		}
		path := cfg.TraceOut
		if path == "" {
			path = filepath.Join(cfg.Workdir, "spans-"+w.Name+".json")
		}
		if err := writeSpans(path, tr.spans); err != nil {
			return nil, err
		}
		rep.notes = append(rep.notes, fmt.Sprintf("%d spans written to %s", len(tr.spans), path))
	}

	list := endToEnd
	if cfg.Trace {
		list = perLayer
	}
	for _, d := range list {
		v, ok := rep.all[d.Name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.Name)
		}
		rep.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return rep, nil
}

func (r *report) set(name string, v float64) {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.all[name] = v
}

func (r *report) fail(format string, args ...any) {
	r.Correct = false
	msg := fmt.Sprintf(format, args...)
	r.notes = append(r.notes, "FAIL: "+msg)
	fmt.Fprintf(os.Stderr, "kiffload: FAIL: %s\n", msg)
}

func writeFixture(path string, d *kiff.Dataset) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := kiff.WriteDataset(f, d); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
