package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"kiff"
	"kiff/internal/wal"
)

// writeEdgeList materializes a small deterministic edge list.
func writeEdgeList(t *testing.T) string {
	t.Helper()
	var sb strings.Builder
	for u := 0; u < 30; u++ {
		for j := 0; j < 4; j++ {
			fmt.Fprintf(&sb, "%d %d %d\n", u, (u*3+j*5)%17, 1+(u+j)%5)
		}
	}
	path := filepath.Join(t.TempDir(), "ratings.tsv")
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// boot starts run() on an ephemeral port and returns the base URL and a
// shutdown func that waits for a clean exit.
func boot(t *testing.T, args ...string) (string, func() error) {
	t.Helper()
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	var stderr bytes.Buffer
	go func() {
		errc <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), &stderr, ready)
	}()
	select {
	case addr := <-ready:
		return "http://" + addr, func() error {
			cancel()
			select {
			case err := <-errc:
				return err
			case <-time.After(10 * time.Second):
				return fmt.Errorf("server did not shut down")
			}
		}
	case err := <-errc:
		cancel()
		t.Fatalf("server exited before ready: %v\nstderr: %s", err, stderr.String())
		return "", nil
	case <-time.After(60 * time.Second):
		cancel()
		t.Fatalf("server never became ready\nstderr: %s", stderr.String())
		return "", nil
	}
}

func TestServeColdBuildLifecycle(t *testing.T) {
	url, shutdown := boot(t, "-in", writeEdgeList(t), "-k", "5")

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status string `json:"status"`
		Users  int    `json:"users"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Status != "ok" || health.Users != 30 {
		t.Fatalf("healthz = %+v", health)
	}

	// The cold start's split: the edge list was loaded and built from,
	// and no log was attached.
	resp, err = http.Get(url + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Boot map[string]int64 `json:"boot"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if b := stats.Boot; b["load_ns"] <= 0 || b["build_ns"] <= 0 || b["wal_ns"] != 0 {
		t.Fatalf("/stats boot = %v, want load and build timed, no wal", b)
	}

	q := `{"profile":{"3":2,"8":1},"k":3}`
	resp, err = http.Post(url+"/query", "application/json", strings.NewReader(q))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query: %d: %s", resp.StatusCode, body)
	}

	resp, err = http.Post(url+"/users", "application/json", strings.NewReader(`{"profile":{"1":4}}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("insert: %d: %s", resp.StatusCode, body)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
}

// TestServeCheckpointReadonly drives the intended production flow: save a
// checkpoint pair, serve it mmap-loaded and read-only, and verify reads
// work while mutations are refused.
func TestServeCheckpointReadonly(t *testing.T) {
	d, err := kiff.GeneratePreset("wikipedia", 0.01, 3)
	if err != nil {
		t.Fatal(err)
	}
	res, err := kiff.Build(d, kiff.Options{K: 6})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	gpath := filepath.Join(dir, "g.kfg")
	dpath := filepath.Join(dir, "d.kfd")
	if err := kiff.SaveGraph(gpath, res.Graph); err != nil {
		t.Fatal(err)
	}
	if err := kiff.SaveDataset(dpath, d); err != nil {
		t.Fatal(err)
	}

	url, shutdown := boot(t, "-graph", gpath, "-data", dpath, "-readonly")

	resp, err := http.Get(url + "/neighbors/0")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("neighbors: %d", resp.StatusCode)
	}
	resp, err = http.Post(url+"/users", "application/json", strings.NewReader(`{"profile":{"1":1}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("read-only insert: %d, want 403", resp.StatusCode)
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
}

func TestServeFlagValidation(t *testing.T) {
	var stderr bytes.Buffer
	if err := run(context.Background(), nil, &stderr, nil); err == nil {
		t.Fatal("no data source accepted")
	}
	if err := run(context.Background(), []string{"-graph", "/does/not/exist.kfg", "-data", "/does/not/exist.kfd"}, &stderr, nil); err == nil {
		t.Fatal("missing checkpoint accepted")
	}
}

// TestServeShardedLifecycle covers the -shards cold build, -save-pool
// checkpointing, and the -pool restart path (mutable and -readonly),
// asserting the sharded server answers /query identically to the
// unsharded one over the same data and that /stats carries per-shard
// counters.
func TestServeShardedLifecycle(t *testing.T) {
	edges := writeEdgeList(t)
	poolDir := filepath.Join(t.TempDir(), "pool")

	single, shutdownSingle := boot(t, "-in", edges, "-k", "5")
	sharded, shutdownSharded := boot(t, "-in", edges, "-k", "5", "-shards", "4", "-save-pool", poolDir)

	q := `{"profile":{"3":2,"8":1},"k":4}`
	queryBody := func(url string) string {
		t.Helper()
		resp, err := http.Post(url+"/query", "application/json", strings.NewReader(q))
		if err != nil {
			t.Fatal(err)
		}
		body, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("query %s: %d: %s", url, resp.StatusCode, body)
		}
		var out struct {
			Results json.RawMessage `json:"results"`
		}
		if err := json.Unmarshal(body, &out); err != nil {
			t.Fatal(err)
		}
		return string(out.Results)
	}
	if got, want := queryBody(sharded), queryBody(single); got != want {
		t.Fatalf("sharded /query diverged\n got: %s\nwant: %s", got, want)
	}

	var stats struct {
		Shards []struct {
			Users int `json:"users"`
		} `json:"shards"`
	}
	resp, err := http.Get(sharded + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(stats.Shards) != 4 {
		t.Fatalf("/stats shards = %d entries, want 4", len(stats.Shards))
	}
	total := 0
	for _, sh := range stats.Shards {
		total += sh.Users
	}
	if total != 30 {
		t.Fatalf("per-shard users sum to %d, want 30", total)
	}

	if err := shutdownSharded(); err != nil {
		t.Fatal(err)
	}
	if err := shutdownSingle(); err != nil {
		t.Fatal(err)
	}

	// Restart from the saved pool checkpoint: same answers, still mutable.
	restarted, shutdownRestarted := boot(t, "-pool", poolDir)
	single2, shutdownSingle2 := boot(t, "-in", edges, "-k", "5")
	if got, want := queryBody(restarted), queryBody(single2); got != want {
		t.Fatalf("restarted pool /query diverged\n got: %s\nwant: %s", got, want)
	}
	resp, err = http.Post(restarted+"/users", "application/json", strings.NewReader(`{"profile":{"1":4}}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("insert into restarted pool: %d: %s", resp.StatusCode, body)
	}
	if err := shutdownRestarted(); err != nil {
		t.Fatal(err)
	}

	// The same checkpoint served read-only: a View over the mapped shard
	// files, same answers, mutations refused.
	ro, shutdownRO := boot(t, "-readonly", "-pool", poolDir)
	if got, want := queryBody(ro), queryBody(single2); got != want {
		t.Fatalf("read-only pool /query diverged\n got: %s\nwant: %s", got, want)
	}
	resp, err = http.Post(ro+"/users", "application/json", strings.NewReader(`{"profile":{"1":4}}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusForbidden {
		t.Fatalf("read-only pool insert: %d, want 403", resp.StatusCode)
	}
	if err := shutdownRO(); err != nil {
		t.Fatal(err)
	}
	if err := shutdownSingle2(); err != nil {
		t.Fatal(err)
	}
}

func TestServeShardedFlagValidation(t *testing.T) {
	var stderr bytes.Buffer
	cases := [][]string{
		{"-shards", "4", "-graph", "/x.kfg", "-data", "/x.kfd"}, // -graph seeds one maintainer
		{"-shards", "0", "-in", "/x.tsv"},                       // no such pool
		{"-graph", "/x.kfg"},                                    // -graph requires -data
		{"-pool", "/does/not/exist"},                            // missing manifest
	}
	for _, args := range cases {
		if err := run(context.Background(), args, &stderr, nil); err == nil {
			t.Errorf("args %v accepted, want error", args)
		}
	}
}

// bootErr runs kiffserve and returns the error it exits with before
// serving; a server that comes up instead is shut down and reported as
// a nil error.
func bootErr(args ...string) error {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	ready := make(chan string, 1)
	errc := make(chan error, 1)
	go func() {
		errc <- run(ctx, append([]string{"-addr", "127.0.0.1:0"}, args...), io.Discard, ready)
	}()
	select {
	case err := <-errc:
		return err
	case <-ready:
		cancel()
		<-errc
		return nil
	}
}

// writeUnshardedLog writes a KFL1 log under the single-log name older
// releases used (wal.kfl), holding one logged insert.
func writeUnshardedLog(t *testing.T, dir string) {
	t.Helper()
	l, err := wal.Open(filepath.Join(dir, "wal.kfl"), wal.Options{Sync: wal.SyncNever}, func(wal.Record) error {
		return fmt.Errorf("fresh log replayed a record")
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(wal.Record{Kind: wal.KindAddUser, Items: []uint32{1, 9}, Weights: []float64{4, 2}}); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestServeWALRefusesUnshardedLog: a -wal directory still holding the
// single log of an older unsharded server (wal.kfl) is refused at any
// shard count — replaying it would need its records, ignoring it would
// lose them — and the documented migration (rename it to wal.0.kfl)
// recovers the logged write on one shard.
func TestServeWALRefusesUnshardedLog(t *testing.T) {
	edges := writeEdgeList(t)
	walDir := t.TempDir()
	writeUnshardedLog(t, walDir)
	for _, shards := range []string{"1", "4"} {
		err := bootErr("-in", edges, "-k", "5", "-shards", shards, "-wal", walDir)
		if err == nil || !strings.Contains(err.Error(), "wal.kfl") {
			t.Fatalf("-shards %s over a wal.kfl directory: err = %v, want a refusal naming wal.kfl", shards, err)
		}
	}

	if err := os.Rename(filepath.Join(walDir, "wal.kfl"), filepath.Join(walDir, "wal.0.kfl")); err != nil {
		t.Fatal(err)
	}
	url, shutdown := boot(t, "-in", edges, "-k", "5", "-wal", walDir)
	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Users int `json:"users"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&health); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if health.Users != 31 { // 30 from the edge list + the logged insert
		t.Fatalf("migrated log: %d users, want 31", health.Users)
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
}

// TestServeWALRefusesForeignShardLogs: logs left by a 4-shard server
// hold that partition's local IDs, so a 2-shard start over the same
// -wal directory is refused, naming the logs it has no shard for. The
// growing direction has no such logs to name: logs of a 2-shard server
// are all valid file names for 4 shards, so the wal.shards marker is
// what refuses the 4-shard start.
func TestServeWALRefusesForeignShardLogs(t *testing.T) {
	edges := writeEdgeList(t)
	walDir := t.TempDir()
	_, shutdown := boot(t, "-in", edges, "-k", "5", "-shards", "4", "-wal", walDir)
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
	err := bootErr("-in", edges, "-k", "5", "-shards", "2", "-wal", walDir)
	if err == nil || !strings.Contains(err.Error(), "wal.2.kfl") || !strings.Contains(err.Error(), "wal.3.kfl") {
		t.Fatalf("-shards 2 over 4-shard logs: err = %v, want a refusal naming wal.2.kfl and wal.3.kfl", err)
	}

	walDir = t.TempDir()
	url, shutdown := boot(t, "-in", edges, "-k", "5", "-shards", "2", "-wal", walDir)
	resp, err := http.Post(url+"/ratings", "application/json", strings.NewReader(`{"user":10,"item":16,"rating":5}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("rating: %d", resp.StatusCode)
	}
	if err := shutdown(); err != nil {
		t.Fatal(err)
	}
	err = bootErr("-in", edges, "-k", "5", "-shards", "4", "-wal", walDir)
	if err == nil || !strings.Contains(err.Error(), "wal.shards") || !strings.Contains(err.Error(), "records 2 shards, this pool has 4") {
		t.Fatalf("-shards 4 over 2-shard logs: err = %v, want a refusal naming wal.shards and both counts", err)
	}
}
