// Serving: the full build-once/serve-many lifecycle against the HTTP
// API. The example builds a graph over a synthetic dataset, saves the
// checkpoint pair, mmap-loads it back the way a serving process would,
// starts the HTTP front-end in-process, and exercises every endpoint —
// health, neighbor lookups, profile queries, item recommendations, user
// inserts and rating updates — over real HTTP.
package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"

	"kiff"
	"kiff/internal/server"
)

func main() {
	// --- Build and persist the checkpoint pair --------------------------
	ds, err := kiff.GeneratePreset("wikipedia", 0.05, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dataset: %s\n", ds.Stats())

	res, err := kiff.Build(ds, kiff.Options{K: 10})
	if err != nil {
		log.Fatal(err)
	}
	dir, err := os.MkdirTemp("", "kiff-serving")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	gpath := filepath.Join(dir, "graph.kfg")
	dpath := filepath.Join(dir, "data.kfd")
	if err := kiff.SaveGraph(gpath, res.Graph); err != nil {
		log.Fatal(err)
	}
	if err := kiff.SaveDataset(dpath, ds); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("checkpoints saved: %s, %s\n", gpath, dpath)

	// --- Load the way a serving process does: mmap, zero-copy -----------
	mg, err := kiff.LoadGraphMapped(gpath)
	if err != nil {
		log.Fatal(err)
	}
	md, err := kiff.LoadDatasetMapped(dpath)
	if err != nil {
		log.Fatal(err)
	}
	defer md.Close()
	fmt.Printf("mapped load: graph mmap=%v, dataset mmap=%v\n", mg.Mapped(), md.Mapped())

	m, err := kiff.NewMaintainerFromGraph(md.Dataset(), mg.Graph(), kiff.Options{})
	if err != nil {
		log.Fatal(err)
	}
	mg.Close() // heap seeding done; the maintainer owns its own state

	// The serving backend is a pool; an unsharded one has one shard.
	pool, err := kiff.OneShardPool(m)
	if err != nil {
		log.Fatal(err)
	}

	// --- Serve ----------------------------------------------------------
	srv, err := server.New(server.Config{Pool: pool, QueryBudget: 20})
	if err != nil {
		log.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()
	fmt.Printf("serving on %s\n\n", ts.URL)

	show := func(label, method, path string, body any) map[string]any {
		var rd io.Reader
		if body != nil {
			b, err := json.Marshal(body)
			if err != nil {
				log.Fatal(err)
			}
			rd = bytes.NewReader(b)
		}
		req, err := http.NewRequest(method, ts.URL+path, rd)
		if err != nil {
			log.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			log.Fatal(err)
		}
		defer resp.Body.Close()
		var out map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %s %s -> %d\n", label, method, path, resp.StatusCode)
		return out
	}

	health := show("liveness", "GET", "/healthz", nil)
	fmt.Printf("    version %v over %v users\n", health["version"], health["users"])

	nbs := show("neighbor lookup", "GET", "/neighbors/42", nil)
	fmt.Printf("    user 42 has %d neighbors\n", len(nbs["neighbors"].([]any)))

	users := show("KNN query", "POST", "/query",
		map[string]any{"profile": map[string]float64{"3": 2, "17": 1, "40": 3}, "k": 5})
	fmt.Printf("    top users: %v\n", users["results"])

	items := show("item recommendation", "POST", "/query",
		map[string]any{"profile": map[string]float64{"3": 2, "17": 1}, "k": 5, "want": "items"})
	fmt.Printf("    top items: %v\n", items["results"])

	ins := show("insert user", "POST", "/users",
		map[string]any{"profile": map[string]float64{"3": 2, "8": 5}})
	fmt.Printf("    new user id %v, snapshot version %v\n", ins["id"], ins["version"])

	rat := show("rating update", "POST", "/ratings",
		map[string]any{"user": 42, "item": 3, "rating": 5})
	fmt.Printf("    applied, snapshot version %v\n", rat["version"])

	// The inserted user is immediately servable.
	id := fmt.Sprintf("%v", ins["id"])
	show("neighbors of new user", "GET", "/neighbors/"+id, nil)

	stats := show("stats", "GET", "/stats", nil)
	fmt.Printf("    queries=%v inserts=%v ratings=%v maintain=%v\n",
		stats["queries"], stats["inserts"], stats["ratings"], stats["maintain"])
}
