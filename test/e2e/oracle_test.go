package e2e

import (
	"net/http/httptest"
	"testing"

	"kiff"
	"kiff/internal/server"
)

// oracle is the in-process one-shard reference the black-box servers
// must converge to: the same kiffknn artifacts, the same mutation
// stream, driven through the same HTTP surface (an httptest front-end
// over internal/server) so response bytes are comparable one-to-one.
// It checkpoints and restarts in lockstep with the system under test:
// a SIGKILL on the real server is mirrored by reloading the oracle from
// its own last acknowledged checkpoint, which keeps the two sides'
// WAL-less data loss symmetric.
type oracle struct {
	t        *testing.T
	ckptRoot string // stable across restarts: generations continue
	srv      *server.Server
	ts       *httptest.Server
	queue    int
	cfgMods  []func(*server.Config) // applied on every (re)boot — hardening config
}

// newOracle boots the oracle from a graph/dataset pair. cfgMods are applied
// to the server configuration on every boot, including crash restarts —
// the hardened chaos run injects its API keys and rate limits here so
// every oracle incarnation enforces exactly what the system under test's
// flags enforce.
func newOracle(t *testing.T, gpath, dpath, ckptRoot string, queue int, cfgMods ...func(*server.Config)) *oracle {
	o := &oracle{t: t, ckptRoot: ckptRoot, queue: queue, cfgMods: cfgMods}
	g, err := kiff.LoadGraph(gpath)
	if err != nil {
		t.Fatalf("oracle graph: %v", err)
	}
	d, err := kiff.LoadDataset(dpath)
	if err != nil {
		t.Fatalf("oracle dataset: %v", err)
	}
	m, err := kiff.NewMaintainerFromGraph(d, g, kiff.Options{})
	if err != nil {
		t.Fatal(err)
	}
	p, err := kiff.OneShardPool(m)
	if err != nil {
		t.Fatal(err)
	}
	o.boot(p)
	t.Cleanup(func() { o.close() })
	return o
}

func (o *oracle) boot(p *kiff.ShardedMaintainer) {
	cfg := server.Config{
		Pool:          p,
		CheckpointDir: o.ckptRoot,
		QueueDepth:    o.queue,
	}
	for _, mod := range o.cfgMods {
		mod(&cfg)
	}
	srv, err := server.New(cfg)
	if err != nil {
		o.t.Fatal(err)
	}
	o.srv = srv
	o.ts = httptest.NewServer(srv.Handler())
}

func (o *oracle) close() {
	if o.ts != nil {
		o.ts.Close()
		o.ts = nil
	}
	if o.srv != nil {
		o.srv.Close()
		o.srv = nil
	}
}

// restart mirrors a crash: drop the live state and reload from ckptDir
// (a directory a previous POST /checkpoint on the oracle returned).
func (o *oracle) restart(ckptDir string) {
	o.close()
	p, err := kiff.LoadShardedMaintainer(ckptDir, kiff.Options{})
	if err != nil {
		o.t.Fatalf("oracle restart: %v", err)
	}
	o.boot(p)
}

func (o *oracle) url() string { return o.ts.URL }
