package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"time"

	"kiff"
	"kiff/internal/wal"
)

// span is one traced call: a layer boundary crossed while replaying one
// request. Times are nanoseconds since the start of the trace.
type span struct {
	Req    int    `json:"req"` // op index within the nominal step; -1 for set-up
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // -1 for a root
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory; with on unset it records nothing, which
// is how the replay measures its own overhead.
type tracer struct {
	epoch time.Time
	on    bool
	spans []span
}

func (t *tracer) begin(req, parent int, name string) int {
	if !t.on {
		return -1
	}
	t.spans = append(t.spans, span{Req: req, ID: len(t.spans), Parent: parent, Name: name, Start: time.Since(t.epoch).Nanoseconds()})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if id >= 0 {
		t.spans[id].End = time.Since(t.epoch).Nanoseconds()
	}
}

// traced runs f inside a span.
func (t *tracer) traced(req, parent int, name string, f func()) {
	id := t.begin(req, parent, name)
	f()
	t.end(id)
}

// selfTimes returns, per span name, each span's duration minus the time
// its children cover, in span order.
func selfTimes(spans []span) map[string][]float64 {
	child := map[int]int64{}
	for _, s := range spans {
		if s.Parent >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string][]float64{}
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.End-s.Start-child[s.ID]))
	}
	return out
}

// readView is one pinned, immutable read view of the backend.
type readView interface {
	Version() uint64
	K() int
	Neighbors(u uint32) ([]kiff.Neighbor, error)
	Query(p kiff.Profile, k, budget int) ([]kiff.Neighbor, error)
	Profile(u uint32) (kiff.Profile, bool)
}

type snapshotView struct{ *kiff.Snapshot }

func (v snapshotView) Neighbors(u uint32) ([]kiff.Neighbor, error) {
	return v.Snapshot.Neighbors(u), nil
}

// replayBackend is the workload's backend built in-process: a
// Maintainer, or a sharded pool.
type replayBackend interface {
	pin() readView
	InsertBatch(ps []kiff.Profile) ([]uint32, error)
	AddRating(u, item uint32, rating float64) error
	Rebuild(dirty []uint32) error
}

type maintainerBackend struct{ *kiff.Maintainer }

func (b maintainerBackend) pin() readView { return snapshotView{b.Snapshot()} }

type poolBackend struct{ *kiff.ShardedMaintainer }

func (b poolBackend) pin() readView { return b.View() }

// Wire shapes the server decodes: the replay decodes request bodies
// into the same shapes to time the decode layer.
type queryWire struct {
	Profile map[uint32]float64 `json:"profile"`
	K       int                `json:"k"`
	Binary  bool               `json:"binary"`
	Want    string             `json:"want"`
}

type insertWire struct {
	Profile map[uint32]float64 `json:"profile"`
	Binary  bool               `json:"binary"`
}

type ratingWire struct {
	User   uint32  `json:"user"`
	Item   uint32  `json:"item"`
	Rating float64 `json:"rating"`
}

// traceResult is what the traced replay measured.
type traceResult struct {
	spans    []span
	metrics  map[string]float64
	readSpan map[opKind]float64 // mean Σ layer time per request, µs
}

// replay rebuilds the workload's backend in-process from the fixture
// file and replays ops one at a time, recording a span around every
// public call a request makes: the per-layer view of the HTTP run.
func replay(w Workload, fixturePath, workdir string, ops []Op) (*traceResult, error) {
	t := &tracer{epoch: time.Now(), on: true}
	timed := func(name string, f func() error) (time.Duration, error) {
		id := t.begin(-1, -1, name)
		err := f()
		t.end(id)
		return time.Duration(t.spans[id].End - t.spans[id].Start), err
	}
	var (
		ds  *kiff.Dataset
		res *kiff.Result
		be  replayBackend
		m   = map[string]float64{}
	)
	d, err := timed("dataset.load", func() (err error) {
		ds, err = kiff.LoadFile(fixturePath, kiff.LoadOptions{})
		return err
	})
	if err != nil {
		return nil, err
	}
	m["dataset.load_s"] = d.Seconds()
	opts := kiff.Options{K: serverK}
	if d, err = timed("kiff.build", func() (err error) {
		res, err = kiff.Build(ds, opts)
		return err
	}); err != nil {
		return nil, err
	}
	m["kiff.build_s"] = d.Seconds()
	m["build.preprocess_s"] = res.Run.PhaseTimes[0].Seconds()
	m["build.candidates_s"] = res.Run.PhaseTimes[1].Seconds()
	m["build.similarity_s"] = res.Run.PhaseTimes[2].Seconds()
	m["build.sim_evals"] = float64(res.Run.SimEvals)
	m["build.scan_rate"] = res.Run.ScanRate()
	if w.Shards > 0 {
		// The pool partitions ds without retaining it, so ds can still
		// seed the single maintainer whose first publish is timed below.
		if _, err := timed("shard.build", func() error {
			p, err := kiff.NewShardedMaintainer(ds, w.Shards, opts)
			be = poolBackend{p}
			return err
		}); err != nil {
			return nil, err
		}
	}
	if d, err = timed("kiff.first_publish", func() error {
		mt, err := kiff.NewMaintainerFromGraph(ds, res.Graph, opts)
		if be == nil {
			be = maintainerBackend{mt}
		}
		return err
	}); err != nil {
		return nil, err
	}
	m["kiff.first_publish_ms"] = d.Seconds() * 1000

	var log *wal.Log
	if w.WAL {
		dir := filepath.Join(workdir, "trace-wal")
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		if log, err = wal.Open(filepath.Join(dir, "wal.kfl"), wal.Options{Sync: wal.SyncAlways}, func(wal.Record) error { return nil }); err != nil {
			return nil, err
		}
		defer log.Close()
	}

	r := &replayer{t: t, be: be, log: log}
	first := len(t.spans)
	for i := range ops {
		if err := r.do(i, &ops[i]); err != nil {
			return nil, fmt.Errorf("replay op %d (%s): %w", i, ops[i].Kind, err)
		}
	}
	reqSpans := t.spans[first:]

	self := selfTimes(reqSpans)
	for _, name := range []string{"server.decode", "kiff.pin", "kiff.neighbors", "kiff.profile_fetch", "server.encode",
		"kiff.insert", "kiff.add_rating", "kiff.rebuild", "wal.append"} {
		m[name+"_us"] = mean(self[name]) / 1e3
	}
	q := self["kiff.query"]
	m["kiff.query_p50_us"] = percentile(slices.Clone(q), 50) / 1e3
	m["kiff.query_p99_us"] = percentile(slices.Clone(q), 99) / 1e3

	// Per op kind: the mean total time of the layer spans under a request.
	layerUS := map[int]float64{}
	for _, s := range reqSpans {
		if s.Parent >= 0 {
			layerUS[s.Parent] += float64(s.End-s.Start) / 1e3
		}
	}
	perKind := map[opKind][]float64{}
	for _, s := range reqSpans {
		if s.Parent < 0 {
			k := ops[s.Req].Kind
			if k == opQueryItems {
				k = opQueryUsers // the server's /query handler serves both
			}
			perKind[k] = append(perKind[k], layerUS[s.ID])
		}
	}
	rs := map[opKind]float64{}
	for k, xs := range perKind {
		rs[k] = mean(xs)
	}

	// Overhead: the read requests again without and with spans, after a
	// warm-up pass and in the order untraced, traced, traced, untraced,
	// so that neither side runs on colder caches or a smaller heap.
	reads := slices.DeleteFunc(slices.Clone(ops), func(o Op) bool { return o.Kind.isWrite() })
	reads = reads[:min(len(reads), 2000)]
	var wall [2]time.Duration // untraced, traced
	for pass, traced := range []bool{false, false, true, true, false} {
		t.on = traced
		start := time.Now()
		for i := range reads {
			if err := r.do(-1, &reads[i]); err != nil {
				return nil, err
			}
		}
		d := time.Since(start)
		switch {
		case pass == 0: // warm-up
		case traced:
			wall[1] += d
		default:
			wall[0] += d
		}
	}
	t.spans = t.spans[:first+len(reqSpans)]
	if wall[0] > 0 {
		m["trace.overhead_pct"] = 100 * (wall[1].Seconds() - wall[0].Seconds()) / wall[0].Seconds()
	}
	return &traceResult{spans: t.spans, metrics: m, readSpan: rs}, nil
}

// replayer replays one op the way the server's handler and writer serve
// it, with a span around each public call.
type replayer struct {
	t   *tracer
	be  replayBackend
	log *wal.Log
	buf bytes.Buffer
}

func (r *replayer) do(req int, op *Op) error {
	t := r.t
	root := t.begin(req, -1, "request."+op.Kind.String())
	defer t.end(root)
	body := op.Req[bytes.Index(op.Req, []byte("\r\n\r\n"))+4:]
	var err error
	switch op.Kind {
	case opQueryUsers, opQueryItems:
		var q queryWire
		var p kiff.Profile
		t.traced(req, root, "server.decode", func() {
			if err = json.Unmarshal(body, &q); err == nil {
				p = kiff.ProfileFromMap(q.Profile, q.Binary)
			}
		})
		if err != nil {
			return err
		}
		var v readView
		t.traced(req, root, "kiff.pin", func() { v = r.be.pin() })
		k := q.K
		if q.Want == "items" {
			k = v.K()
		}
		var nbs []kiff.Neighbor
		t.traced(req, root, "kiff.query", func() { nbs, err = v.Query(p, k, -1) })
		if err != nil {
			return err
		}
		out := any(nbs)
		if q.Want == "items" {
			profiles := make([]kiff.Profile, len(nbs))
			t.traced(req, root, "kiff.profile_fetch", func() {
				for i, nb := range nbs {
					profiles[i], _ = v.Profile(nb.ID)
				}
			})
			out = recommend(p, nbs, profiles, q.K)
		}
		r.encode(req, root, map[string]any{"version": v.Version(), "k": q.K, "results": out})
	case opNeighbors:
		var v readView
		t.traced(req, root, "kiff.pin", func() { v = r.be.pin() })
		var nbs []kiff.Neighbor
		t.traced(req, root, "kiff.neighbors", func() { nbs, err = v.Neighbors(op.User) })
		if err != nil {
			return err
		}
		r.encode(req, root, map[string]any{"user": op.User, "version": v.Version(), "neighbors": nbs})
	case opInsert:
		var in insertWire
		var p kiff.Profile
		t.traced(req, root, "server.decode", func() {
			if err = json.Unmarshal(body, &in); err == nil {
				p = kiff.ProfileFromMap(in.Profile, in.Binary)
			}
		})
		if err != nil {
			return err
		}
		r.append(req, root, wal.Record{Kind: wal.KindAddUser, Items: p.IDs, Weights: p.Weights})
		var ids []uint32
		t.traced(req, root, "kiff.insert", func() { ids, err = r.be.InsertBatch([]kiff.Profile{p}) })
		if err != nil {
			return err
		}
		r.encode(req, root, map[string]any{"id": ids[0]})
	case opRating:
		var rt ratingWire
		t.traced(req, root, "server.decode", func() { err = json.Unmarshal(body, &rt) })
		if err != nil {
			return err
		}
		r.append(req, root, wal.Record{Kind: wal.KindAddRating, User: rt.User, Item: rt.Item, Rating: rt.Rating})
		t.traced(req, root, "kiff.add_rating", func() { err = r.be.AddRating(rt.User, rt.Item, rt.Rating) })
		if err != nil {
			return err
		}
		r.append(req, root, wal.Record{Kind: wal.KindRebuild, All: true})
		t.traced(req, root, "kiff.rebuild", func() { err = r.be.Rebuild(nil) })
		if err != nil {
			return err
		}
		r.encode(req, root, map[string]any{"applied": 1})
	}
	return nil
}

// append logs a record into the scratch WAL, when the workload has one.
func (r *replayer) append(req, root int, rec wal.Record) {
	if r.log == nil {
		return
	}
	r.t.traced(req, root, "wal.append", func() {
		if err := r.log.Append(rec); err != nil {
			logf("trace: wal append: %v", err)
		}
	})
}

func (r *replayer) encode(req, root int, v any) {
	r.t.traced(req, root, "server.encode", func() {
		r.buf.Reset()
		enc := json.NewEncoder(&r.buf)
		enc.SetEscapeHTML(false)
		_ = enc.Encode(v)
	})
}

// recommend scores the neighbors' items the way the server's item
// recommendation does; the replay leaves it untraced, so its cost is
// part of the residual.
func recommend(p kiff.Profile, nbs []kiff.Neighbor, profiles []kiff.Profile, k int) []itemJSON {
	scores := map[uint32]float64{}
	for i, pr := range profiles {
		if nbs[i].Sim <= 0 {
			continue
		}
		for j, it := range pr.IDs {
			if !p.Contains(it) {
				scores[it] += nbs[i].Sim * pr.Weight(j)
			}
		}
	}
	out := make([]itemJSON, 0, len(scores))
	for it, sc := range scores {
		out = append(out, itemJSON{ID: it, Score: sc})
	}
	slices.SortFunc(out, func(a, b itemJSON) int {
		switch {
		case a.Score != b.Score && a.Score > b.Score:
			return -1
		case a.Score != b.Score:
			return 1
		}
		return int(a.ID) - int(b.ID)
	})
	return out[:min(k, len(out))]
}

// writeSpans writes the spans as a JSON array.
func writeSpans(path string, spans []span) error {
	raw, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, raw, 0o644)
}
