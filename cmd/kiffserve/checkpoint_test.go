package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"path/filepath"
	"strings"
	"testing"

	"kiff"
)

// queryResults posts one fixed query and returns the raw "results"
// field — the restart-equivalence comparison unit (full bodies differ
// by snapshot version across restarts).
func queryResults(t *testing.T, url string) string {
	t.Helper()
	resp, err := http.Post(url+"/query", "application/json",
		strings.NewReader(`{"profile":{"3":2,"8":1},"k":4}`))
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

// TestServeGracefulFinalCheckpoint is the shutdown-flush regression
// test at the binary level: mutations acknowledged before SIGTERM must
// be present in the final checkpoint the graceful shutdown writes.
func TestServeGracefulFinalCheckpoint(t *testing.T) {
	ckptDir := t.TempDir()
	url, shutdown := boot(t, "-in", writeEdgeList(t), "-k", "5", "-checkpoint", ckptDir)

	resp, err := http.Post(url+"/users", "application/json", strings.NewReader(`{"profile":{"1":4,"9":2}}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("insert: %d: %s", resp.StatusCode, body)
	}

	if err := shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	final := filepath.Join(ckptDir, "final")
	p, err := kiff.LoadShardedMaintainer(final, kiff.Options{})
	if err != nil {
		t.Fatalf("final checkpoint: %v", err)
	}
	if p.NumUsers() != 31 { // 30 from the edge list + the acknowledged insert
		t.Fatalf("final checkpoint has %d users, want 31", p.NumUsers())
	}

	// The final checkpoint restarts and answers.
	url2, shutdown2 := boot(t, "-pool", final)
	if got := queryResults(t, url2); got == "" || got == "null" {
		t.Fatalf("restarted query results = %q", got)
	}
	if err := shutdown2(); err != nil {
		t.Fatal(err)
	}
}

// TestServeCheckpointEndpointRestart: POST /checkpoint on a live server
// produces a directory a fresh kiffserve restarts from (-pool) with
// identical /query answers — unsharded and sharded alike.
func TestServeCheckpointEndpointRestart(t *testing.T) {
	edges := writeEdgeList(t)

	t.Run("unsharded", func(t *testing.T) {
		ckptDir := t.TempDir()
		url, shutdown := boot(t, "-in", edges, "-k", "5", "-checkpoint", ckptDir)
		want := queryResults(t, url)

		resp, err := http.Post(url+"/checkpoint", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var ck struct {
			Dir string `json:"dir"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&ck); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || ck.Dir == "" {
			t.Fatalf("POST /checkpoint: %d, dir %q", resp.StatusCode, ck.Dir)
		}
		if err := shutdown(); err != nil {
			t.Fatal(err)
		}

		url2, shutdown2 := boot(t, "-pool", ck.Dir)
		if got := queryResults(t, url2); got != want {
			t.Fatalf("restarted /query diverged\n got: %s\nwant: %s", got, want)
		}
		if err := shutdown2(); err != nil {
			t.Fatal(err)
		}
	})

	t.Run("sharded", func(t *testing.T) {
		ckptDir := t.TempDir()
		url, shutdown := boot(t, "-in", edges, "-k", "5", "-shards", "4", "-checkpoint", ckptDir)
		want := queryResults(t, url)

		resp, err := http.Post(url+"/checkpoint", "application/json", nil)
		if err != nil {
			t.Fatal(err)
		}
		var ck struct {
			Dir string `json:"dir"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&ck); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK || ck.Dir == "" {
			t.Fatalf("POST /checkpoint: %d, dir %q", resp.StatusCode, ck.Dir)
		}
		if err := shutdown(); err != nil {
			t.Fatal(err)
		}

		url2, shutdown2 := boot(t, "-pool", ck.Dir)
		if got := queryResults(t, url2); got != want {
			t.Fatalf("restarted pool /query diverged\n got: %s\nwant: %s", got, want)
		}
		if err := shutdown2(); err != nil {
			t.Fatal(err)
		}
	})
}

func TestServeCheckpointFlagValidation(t *testing.T) {
	var stderr bytes.Buffer
	if err := run(context.Background(), []string{"-in", "/x", "-readonly", "-checkpoint", "/tmp/c"}, &stderr, nil); err == nil {
		t.Fatal("-checkpoint with -readonly accepted")
	}
}
