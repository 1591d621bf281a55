package main

import (
	_ "embed"
	"encoding/json"
	"fmt"
	"math"

	"kiff"
)

// metricDef names one reported metric.
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
}

// endToEnd are the metrics a user of the server sees; -trace 0 reports
// exactly these. BENCHMARK.json bounds each of them.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"query_p50_ms", "ms", "lower"},
	{"neighbors_p50_ms", "ms", "lower"},
	{"insert_p50_ms", "ms", "lower"},
	{"rating_p50_ms", "ms", "lower"},
	{"max_rps", "1/s", "higher"},
	{"graph_recall", "fraction", "higher"},
	{"rss_peak_mb", "MB", "lower"},
}

// perLayer are the metrics of single layers; -trace 1 reports exactly
// these.
var perLayer = []metricDef{
	// Scraped from the server's /metrics and /stats over the nominal step.
	{"server.query_handler_mean_ms", "ms", "lower"},
	{"server.neighbors_handler_mean_ms", "ms", "lower"},
	{"server.users_handler_mean_ms", "ms", "lower"},
	{"server.ratings_handler_mean_ms", "ms", "lower"},
	{"server.query_transport_mean_ms", "ms", "lower"},
	{"server.writer_batch_size_mean", "count", "higher"},
	{"server.queue_depth_max", "count", "lower"},
	{"kiff.publish_mean_us", "us", "lower"},
	{"kiff.publications_per_write", "count", "lower"},
	{"knngraph.pages_copied_per_publish", "count", "lower"},
	{"knngraph.pages_shared_per_publish", "count", "higher"},
	{"kiff.maintain_sim_evals_per_write", "count", "lower"},
	{"kiff.rebuilt_users_per_rebuild", "count", "lower"},
	{"wal.bytes_per_write", "bytes", "lower"},
	{"wal.fsyncs_per_write", "count", "lower"},
	// Measured by the generator.
	{"gen.send_lag_tail_ms", "ms", "lower"},
	{"gen.query_tail_ms", "ms", "lower"},
	{"gen.neighbors_tail_ms", "ms", "lower"},
	{"gen.insert_tail_ms", "ms", "lower"},
	{"gen.rating_tail_ms", "ms", "lower"},
	{"workload.candidates_per_query_mean", "count", "lower"},
	{"workload.candidates_per_query_p99", "count", "lower"},
	{"workload.repeat_share", "fraction", "higher"},
	// Spans of the in-process replay.
	{"server.decode_us", "us", "lower"},
	{"kiff.pin_us", "us", "lower"},
	{"kiff.query_p50_us", "us", "lower"},
	{"kiff.query_p99_us", "us", "lower"},
	{"kiff.neighbors_us", "us", "lower"},
	{"kiff.profile_fetch_us", "us", "lower"},
	{"server.encode_us", "us", "lower"},
	{"kiff.insert_us", "us", "lower"},
	{"kiff.add_rating_us", "us", "lower"},
	{"kiff.rebuild_us", "us", "lower"},
	{"wal.append_us", "us", "lower"},
	{"dataset.load_s", "s", "lower"},
	{"kiff.build_s", "s", "lower"},
	{"build.preprocess_s", "s", "lower"},
	{"build.candidates_s", "s", "lower"},
	{"build.similarity_s", "s", "lower"},
	{"build.sim_evals", "count", "lower"},
	{"build.scan_rate", "fraction", "lower"},
	{"kiff.first_publish_ms", "ms", "lower"},
	{"trace.query_residual_pct", "%", "lower"},
	{"trace.neighbors_residual_pct", "%", "lower"},
	{"trace.overhead_pct", "%", "lower"},
}

func unitOf(name string) string {
	for _, list := range [][]metricDef{endToEnd, perLayer} {
		for _, d := range list {
			if d.Name == name {
				return d.Unit
			}
		}
	}
	return ""
}

// calibrationJSON holds, per workload and end-to-end metric, the
// statistics of the runs the bounds in BENCHMARK.json were derived from.
//
//go:embed calibration.json
var calibrationJSON []byte

type calibrationEntry struct {
	Median float64 `json:"median"`
}

// calibrated returns the calibration median of a workload's metric, or
// 0 when it has none.
func calibrated(workload, metric string) float64 {
	var c struct {
		Workloads map[string]map[string]calibrationEntry `json:"workloads"`
	}
	if err := json.Unmarshal(calibrationJSON, &c); err != nil {
		panic(fmt.Sprintf("embedded calibration.json: %v", err))
	}
	return c.Workloads[workload][metric].Median
}

// summarize derives the end-to-end and scraped per-layer metrics of a
// run from its results; nom is the nominal step's phase index.
func summarize(rep *report, fixture *kiff.Dataset, ops []Op, s schedule, res []result, mon *monitor, nom int) {
	ms := func(sec float64) float64 { return sec * 1000 }
	var (
		steps       []stepOutcome
		queryClient float64 // mean send → response of nominal queries, ms
	)
	for p, ph := range s.Phases {
		if !ph.Recorded {
			continue
		}
		// Latencies in ms per op kind, with queries of both kinds
		// together as the server's /query endpoint serves them.
		var byKind [numOpKinds][]float64
		var read, write, lag, transport []float64
		o := stepOutcome{Rate: ph.Rate, Seconds: ph.End - ph.Start, Attempted: ph.Len}
		for i := ph.First; i < ph.First+ph.Len; i++ {
			r, due, kind := res[i], s.Due[i], ops[i].Kind
			// A request never sent waited at least until its step ended.
			lat := ph.End - due
			switch {
			case !r.Sent:
				o.Unsent++
			case !r.OK:
				o.Failed++
				lat = r.Latency(due)
			default:
				o.Completed++
				lat = r.Latency(due)
			}
			if r.Sent {
				lag = append(lag, ms(r.Lag(due)))
			} else {
				lag = append(lag, ms(lat))
			}
			if kind.isQuery() {
				kind = opQueryUsers
				if r.Sent && r.OK {
					transport = append(transport, ms(r.DoneAt-r.SentAt))
				}
			}
			byKind[kind] = append(byKind[kind], ms(lat))
			if kind.isWrite() {
				write = append(write, ms(lat))
			} else {
				read = append(read, ms(lat))
			}
		}
		o.ReadTail = msDuration(tail(read))
		o.WriteTail = msDuration(tail(write))
		o.LagTail = msDuration(tail(lag))
		steps = append(steps, o)
		rep.notes = append(rep.notes, fmt.Sprintf("step %-7s rate=%5.0f/s goodput=%7.1f/s read_tail=%v write_tail=%v lag_tail=%v unsent=%d failed=%d meets_slo=%v",
			ph.Name, ph.Rate, o.goodput(), o.ReadTail, o.WriteTail, o.LagTail, o.Unsent, o.Failed, o.meets(defaultSLO)))
		if p != nom {
			continue
		}
		for _, c := range []struct {
			name string
			xs   []float64
		}{{"query", byKind[opQueryUsers]}, {"neighbors", byKind[opNeighbors]}, {"insert", byKind[opInsert]}, {"rating", byKind[opRating]}} {
			rep.notes = append(rep.notes, fmt.Sprintf("nominal %-9s samples=%5d tail=p%v", c.name, len(c.xs), max(50, min(99, highestSupported(len(c.xs))))))
			rep.set(c.name+"_p50_ms", percentile(c.xs, 50))
			rep.set("gen."+c.name+"_tail_ms", tail(c.xs))
		}
		rep.set("gen.send_lag_tail_ms", tail(lag))
		queryClient = mean(transport)
	}
	rep.set("max_rps", maxRPS(steps, defaultSLO))

	// Server-side counters, as deltas over the nominal step.
	if len(mon.scrapes) > nom+1 {
		a, b := mon.scrapes[nom], mon.scrapes[nom+1]
		dm := func(name string) float64 { return b.Metrics[name] - a.Metrics[name] }
		ratio := func(num, den float64) float64 {
			if den == 0 {
				return 0
			}
			return num / den
		}
		for _, ep := range []string{"query", "neighbors", "users", "ratings"} {
			series := `kiffserve_http_request_duration_seconds_%s{endpoint="/` + ep + `"}`
			rep.set("server."+ep+"_handler_mean_ms", 1000*ratio(dm(fmt.Sprintf(series, "sum")), dm(fmt.Sprintf(series, "count"))))
		}
		rep.set("server.query_transport_mean_ms", queryClient-rep.all["server.query_handler_mean_ms"])
		rep.set("server.writer_batch_size_mean", ratio(dm("kiffserve_writer_batch_size_sum"), dm("kiffserve_writer_batch_size_count")))
		rep.set("server.queue_depth_max", float64(mon.maxDepth[nom]))
		writes := dm("kiffserve_insert_requests_total") + dm("kiffserve_rating_requests_total")
		pubs := b.Stats.Publish.Publications - a.Stats.Publish.Publications
		rep.set("kiff.publish_mean_us", ratio(b.Stats.Publish.PublishNs-a.Stats.Publish.PublishNs, pubs)/1e3)
		rep.set("kiff.publications_per_write", ratio(pubs, writes))
		rep.set("knngraph.pages_copied_per_publish", ratio(b.Stats.Publish.PagesCopied-a.Stats.Publish.PagesCopied, pubs))
		rep.set("knngraph.pages_shared_per_publish", ratio(b.Stats.Publish.PagesShared-a.Stats.Publish.PagesShared, pubs))
		rep.set("kiff.maintain_sim_evals_per_write", ratio(b.Stats.Maintain.SimEvals-a.Stats.Maintain.SimEvals, writes))
		rep.set("kiff.rebuilt_users_per_rebuild", ratio(b.Stats.Maintain.RebuiltUsers-a.Stats.Maintain.RebuiltUsers, b.Stats.Maintain.Rebuilds-a.Stats.Maintain.Rebuilds))
		rep.set("wal.bytes_per_write", ratio(b.Stats.WAL.AppendedBytes-a.Stats.WAL.AppendedBytes, writes))
		rep.set("wal.fsyncs_per_write", ratio(b.Stats.WAL.Fsyncs-a.Stats.WAL.Fsyncs, writes))
	}

	// Workload properties of the nominal step's queries.
	ph := s.Phases[nom]
	stamp := make([]int, fixture.NumUsers())
	seen := map[string]bool{}
	var cands []float64
	repeats, queries := 0, 0
	for i := 0; i < ph.First+ph.Len; i++ {
		if !ops[i].Kind.isQuery() || !res[i].Sent {
			continue
		}
		body := string(ops[i].Req)
		if i >= ph.First {
			queries++
			if seen[body] {
				repeats++
			}
			n := 0
			for _, it := range ops[i].Profile.IDs {
				for _, u := range fixture.Item(it) {
					if stamp[u] != i+1 {
						stamp[u] = i + 1
						n++
					}
				}
			}
			cands = append(cands, float64(n))
		}
		seen[body] = true
	}
	rep.set("workload.candidates_per_query_mean", mean(cands))
	rep.set("workload.candidates_per_query_p99", percentile(cands, 99))
	rep.set("workload.repeat_share", float64(repeats)/math.Max(1, float64(queries)))
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
