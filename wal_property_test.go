package kiff

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"kiff/internal/wal"
)

// The replay-equivalence property behind the zero-loss contract:
// checkpoint + write-ahead-log replay must reconstruct the same served
// state as applying every mutation directly — inserts, ratings and
// rebuild boundaries alike, unsharded and per shard. The comparison
// unit is what clients see (every neighbor list and probe-query
// answer), the same equality the black-box chaos oracle asserts.

// synthWALDataset builds a small deterministic dataset; calling it
// twice with one seed yields two independent, identical copies (the
// direct and the logged sides must not share mutable state).
func synthWALDataset(t *testing.T, seed int64, users, items int) *Dataset {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	profiles := make([]Profile, users)
	for u := range profiles {
		n := 3 + rng.Intn(5)
		m := map[uint32]float64{}
		for len(m) < n {
			m[uint32(rng.Intn(items))] = float64(1 + rng.Intn(5))
		}
		profiles[u] = ProfileFromMap(m, false)
	}
	d, err := NewDataset("wal-prop", profiles, items)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// walPropOp is one mutation of the generated stream.
type walPropOp struct {
	kind   int // 0 insert, 1 rating, 2 rebuild
	p      Profile
	user   uint32
	item   uint32
	rating float64
	dirty  []uint32 // rebuild: nil = rebuild the accumulated dirty set
}

// genWALPropOps derives a mutation stream whose rating/rebuild targets
// always reference users live at that point. The stream is materialized
// once and applied to both sides, so generation-time randomness cannot
// desynchronize them.
func genWALPropOps(seed int64, n, baseUsers, items int) []walPropOp {
	rng := rand.New(rand.NewSource(seed ^ 0x0b5))
	cur := baseUsers
	ops := make([]walPropOp, 0, n)
	for i := 0; i < n; i++ {
		switch w := rng.Intn(10); {
		case w < 3:
			m := map[uint32]float64{}
			for len(m) < 2+rng.Intn(4) {
				m[uint32(rng.Intn(items))] = float64(1 + rng.Intn(5))
			}
			ops = append(ops, walPropOp{kind: 0, p: ProfileFromMap(m, false)})
			cur++
		case w < 8:
			ops = append(ops, walPropOp{kind: 1,
				user: uint32(rng.Intn(cur)), item: uint32(rng.Intn(items)),
				rating: float64(1 + rng.Intn(5))})
		default:
			var dirty []uint32
			if rng.Intn(2) == 0 {
				seen := map[uint32]bool{}
				for len(seen) < 1+rng.Intn(3) {
					seen[uint32(rng.Intn(cur))] = true
				}
				for u := range seen {
					dirty = append(dirty, u)
				}
			}
			ops = append(ops, walPropOp{kind: 2, dirty: dirty})
		}
	}
	return ops
}

// walServed is the client-visible surface of one side.
type walServed interface {
	NumUsers() int
	Neighbors(u uint32) ([]Neighbor, error)
	Query(p Profile, k, budget int) ([]Neighbor, error)
}

// snapServed adapts a Snapshot (whose Neighbors has no error return).
type snapServed struct{ s *Snapshot }

func (v snapServed) NumUsers() int                                 { return v.s.NumUsers() }
func (v snapServed) Neighbors(u uint32) ([]Neighbor, error)        { return v.s.Neighbors(u), nil }
func (v snapServed) Query(p Profile, k, b int) ([]Neighbor, error) { return v.s.Query(p, k, b) }

// requireServedEqual asserts two sides answer identically: every
// neighbor list and a batch of seeded probe queries.
func requireServedEqual(t *testing.T, got, want walServed, seed int64, items int) {
	t.Helper()
	if got.NumUsers() != want.NumUsers() {
		t.Fatalf("populations diverged: replayed=%d direct=%d", got.NumUsers(), want.NumUsers())
	}
	for u := 0; u < want.NumUsers(); u++ {
		n1, err1 := got.Neighbors(uint32(u))
		n2, err2 := want.Neighbors(uint32(u))
		if err1 != nil || err2 != nil {
			t.Fatalf("neighbors(%d): replayed err=%v direct err=%v", u, err1, err2)
		}
		if !reflect.DeepEqual(n1, n2) {
			t.Fatalf("neighbors(%d) diverged\n replayed: %v\n direct:   %v", u, n1, n2)
		}
	}
	rng := rand.New(rand.NewSource(seed*101 + 7))
	for p := 0; p < 20; p++ {
		m := map[uint32]float64{}
		for len(m) < 2+rng.Intn(4) {
			m[uint32(rng.Intn(items))] = float64(1 + rng.Intn(5))
		}
		k := 3 + rng.Intn(6)
		r1, err1 := got.Query(ProfileFromMap(m, false), k, -1)
		r2, err2 := want.Query(ProfileFromMap(m, false), k, -1)
		if err1 != nil || err2 != nil {
			t.Fatalf("probe %d: replayed err=%v direct err=%v", p, err1, err2)
		}
		if !reflect.DeepEqual(r1, r2) {
			t.Fatalf("probe %d diverged\n replayed: %v\n direct:   %v", p, r1, r2)
		}
	}
}

// TestWALCheckpointReplayEquivalence: unsharded. A logged maintainer
// runs a mutation stream with a checkpoint (and log rotation) in the
// middle, "crashes", and is rebuilt from checkpoint + replay; a twin
// maintainer applies the same stream directly with no log. The two must
// serve identically.
func TestWALCheckpointReplayEquivalence(t *testing.T) {
	const users, items, nops = 60, 40, 120
	for _, seed := range []int64{3, 11} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			opts := Options{K: 8}
			direct, err := NewMaintainer(synthWALDataset(t, seed, users, items), opts)
			if err != nil {
				t.Fatal(err)
			}
			logged, err := NewMaintainer(synthWALDataset(t, seed, users, items), opts)
			if err != nil {
				t.Fatal(err)
			}
			walPath := filepath.Join(t.TempDir(), "wal.kfl")
			if _, err := logged.OpenWAL(walPath, wal.Options{Sync: wal.SyncNever}); err != nil {
				t.Fatal(err)
			}

			ops := genWALPropOps(seed, nops, users, items)
			applyOp := func(m *Maintainer, op walPropOp) {
				t.Helper()
				var err error
				switch op.kind {
				case 0:
					_, err = m.Insert(op.p)
				case 1:
					err = m.AddRating(op.user, op.item, op.rating)
				case 2:
					err = m.Rebuild(op.dirty)
				}
				if err != nil {
					t.Fatalf("apply %+v: %v", op, err)
				}
			}

			ckDir := t.TempDir()
			var ckLSN uint64
			for i, op := range ops {
				applyOp(direct, op)
				applyOp(logged, op)
				if i == nops/2 {
					// Mid-stream checkpoint: persist the logged side's
					// state, record the horizon, rotate the log — replay
					// below must stitch checkpoint and tail back together.
					// Checkpoints only happen at rebuild boundaries (the
					// server's writer flushes pending ratings first): the
					// dirty set is not persisted, so rotating away
					// AddRating records whose rebuild is still pending
					// would shrink a later Rebuild(All)'s target set.
					quiesce := walPropOp{kind: 2}
					applyOp(direct, quiesce)
					applyOp(logged, quiesce)
					saveCheckpointPair(t, ckDir, logged)
					ckLSN = logged.WALLastLSN()
					if err := logged.WALRotate(); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := logged.CloseWAL(); err != nil {
				t.Fatal(err)
			}

			g, err := LoadGraph(filepath.Join(ckDir, "graph.kfg"))
			if err != nil {
				t.Fatal(err)
			}
			ds, err := LoadDataset(filepath.Join(ckDir, "data.kfd"))
			if err != nil {
				t.Fatal(err)
			}
			replayed, err := NewMaintainerFromGraph(ds, g, Options{})
			if err != nil {
				t.Fatal(err)
			}
			stats, err := replayed.OpenWAL(walPath, wal.Options{Sync: wal.SyncNever, FromLSN: ckLSN})
			if err != nil {
				t.Fatal(err)
			}
			if stats.Replayed == 0 {
				t.Fatal("replay applied 0 records; the post-checkpoint tail is missing")
			}
			requireServedEqual(t, snapServed{replayed.Snapshot()}, snapServed{direct.Snapshot()}, seed, items)
		})
	}
}

func saveCheckpointPair(t *testing.T, dir string, m *Maintainer) {
	t.Helper()
	for _, f := range []struct {
		name  string
		write func(*os.File) error
	}{
		{"graph.kfg", func(f *os.File) error { return WriteGraphBinary(f, m.Graph()) }},
		{"data.kfd", func(f *os.File) error { return WriteDatasetBinary(f, m.Dataset()) }},
	} {
		fh, err := os.Create(filepath.Join(dir, f.name))
		if err != nil {
			t.Fatal(err)
		}
		if err := f.write(fh); err != nil {
			t.Fatal(err)
		}
		if err := fh.Close(); err != nil {
			t.Fatal(err)
		}
	}
}

// TestWALShardedCheckpointReplayEquivalence: the same property through
// the pool, at one and four shards — per-shard logs attached by
// Pool.OpenWAL, Pool.Save recording per-shard horizons and rotating, and
// a reloaded pool's OpenWAL replaying every shard above its horizon.
func TestWALShardedCheckpointReplayEquivalence(t *testing.T) {
	const users, items, nops = 60, 40, 120
	for _, seed := range []int64{5, 21} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			for _, shards := range []int{1, 4} {
				walShardedReplayEquivalence(t, seed, shards, users, items, nops)
			}
		})
	}
}

func walShardedReplayEquivalence(t *testing.T, seed int64, shards, users, items, nops int) {
	t.Helper()
	opts := Options{K: 8}
	wopts := wal.Options{Sync: wal.SyncNever}
	directPool, err := NewShardedMaintainer(synthWALDataset(t, seed, users, items), shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	walDir := t.TempDir()
	loggedPool, err := NewShardedMaintainer(synthWALDataset(t, seed, users, items), shards, opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := loggedPool.OpenWAL(walDir, wopts); err != nil {
		t.Fatal(err)
	}

	ops := genWALPropOps(seed, nops, users, items)
	applyOp := func(p *ShardedMaintainer, op walPropOp) {
		t.Helper()
		var err error
		switch op.kind {
		case 0:
			_, err = p.InsertBatch([]Profile{op.p})
		case 1:
			err = p.AddRating(op.user, op.item, op.rating)
		case 2:
			err = p.Rebuild(op.dirty)
		}
		if err != nil {
			t.Fatalf("shards=%d: apply %+v: %v", shards, op, err)
		}
	}

	ckDir := t.TempDir()
	for i, op := range ops {
		applyOp(directPool, op)
		applyOp(loggedPool, op)
		if i == nops/2 {
			// Rebuild boundary before saving, as above: Pool.Save records
			// each shard's horizon in the manifest and rotates the shard
			// logs itself.
			quiesce := walPropOp{kind: 2}
			applyOp(directPool, quiesce)
			applyOp(loggedPool, quiesce)
			if err := loggedPool.Save(ckDir); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := loggedPool.CloseWAL(); err != nil {
		t.Fatal(err)
	}

	replayedPool, err := LoadShardedMaintainer(ckDir, opts)
	if err != nil {
		t.Fatal(err)
	}
	st, err := replayedPool.OpenWAL(walDir, wopts)
	if err != nil {
		t.Fatalf("shards=%d: replay: %v", shards, err)
	}
	if st.Replayed == 0 {
		t.Fatalf("shards=%d: replay applied no records above the checkpoint", shards)
	}
	requireServedEqual(t, replayedPool.View(), directPool.View(), seed, items)
}
