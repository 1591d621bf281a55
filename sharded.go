package kiff

import (
	"fmt"

	"kiff/internal/dataset"
	"kiff/internal/parallel"
	"kiff/internal/shard"
)

// ShardedMaintainer hash-partitions the user population across N
// independent Maintainers and serves scatter-gather reads over their
// snapshots — the single-process sharding layer (see internal/shard for
// the full concurrency and consistency contract).
//
// Reads are lock-free against the shards' published snapshots:
// View().Neighbors routes to the owning shard, View().Query fans out to
// every shard and splices the per-shard top-k with a merge heap — for
// exact (unbudgeted) queries the spliced answer is identical, entry for
// entry, to the single-Maintainer answer over the same data under the
// profile-local metrics (cosine, jaccard, dice, overlap). Writes route
// by owner and run in parallel across shards, so insert- and
// rebuild-heavy workloads scale with the shard count instead of
// serializing through one writer. Save/LoadShardedMaintainer persist and
// recover the pool as per-shard checkpoints plus a manifest, and OpenWAL
// attaches one write-ahead log per shard.
//
// A one-shard pool is a Maintainer behind the trivial partition: it
// serves exactly the Maintainer's graph and answers, its reads run on
// the caller's goroutine, and it owns the Maintainer's dataset (see
// OneShardPool).
type ShardedMaintainer = shard.Pool

// maintainerShard adapts *Maintainer to the pool's per-shard interface;
// the only non-promoted method is Reader (Snapshot returns the concrete
// type).
type maintainerShard struct{ *Maintainer }

func (s maintainerShard) Reader() shard.Reader { return s.Snapshot() }

// OneShardPool wraps an existing Maintainer as a one-shard pool, so code
// written against the pool serves an unsharded graph unchanged. The pool
// takes over the Maintainer's write side: mutate it only through the
// pool from here on.
func OneShardPool(m *Maintainer) (*ShardedMaintainer, error) {
	return shard.NewPool([]shard.Maintainer{maintainerShard{m}}, m.Dataset().NumUsers())
}

// NewShardedMaintainer partitions the dataset's users across shards
// independent Maintainers (stable hash of the user ID; see shard.Owner)
// and cold-builds each shard's exact graph (NewMaintainer) in parallel. Options applies
// to every shard as in NewMaintainer. With several shards the input
// dataset is not retained: each shard compacts its partition onto its
// own arenas, so d remains usable (read-only) by the caller. One shard
// owns every user, so a one-shard pool adopts d instead of copying it —
// it retains and mutates d exactly as NewMaintainer does.
//
// Global user IDs are the dataset's user IDs; IDs assigned by later
// Insert/InsertBatch calls continue the same sequence.
func NewShardedMaintainer(d *Dataset, shards int, opts Options) (*ShardedMaintainer, error) {
	if shards < 1 || shards > shard.MaxShards {
		return nil, fmt.Errorf("kiff: sharded maintainer needs 1..%d shards, got %d", shard.MaxShards, shards)
	}
	if shards == 1 {
		m, err := NewMaintainer(d, opts)
		if err != nil {
			return nil, err
		}
		return OneShardPool(m)
	}
	profiles := make([][]Profile, shards)
	for g, p := range d.Users {
		s := shard.Owner(uint32(g), shards)
		profiles[s] = append(profiles[s], p)
	}
	ms := make([]shard.Maintainer, shards)
	g := parallel.NewGroup(shards)
	for s := 0; s < shards; s++ {
		g.Go(func() error {
			sd, err := dataset.New(shardName(d.Name, s, shards), profiles[s], d.NumItems())
			if err != nil {
				return fmt.Errorf("kiff: sharded maintainer: shard %d: %w", s, err)
			}
			sd.EnsureItemProfiles()
			m, err := NewMaintainer(sd, opts)
			if err != nil {
				return fmt.Errorf("kiff: sharded maintainer: shard %d: %w", s, err)
			}
			ms[s] = maintainerShard{m}
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	return shard.NewPool(ms, d.NumUsers())
}

// LoadShardedMaintainer recovers a pool from a checkpoint directory
// written by ShardedMaintainer.Save: the manifest is validated, every
// shard's graph and dataset are heap-loaded, and each shard is seeded
// with NewMaintainerFromGraph (no reconstruction). Options applies per
// shard as in NewMaintainerFromGraph — in particular K = 0 adopts the
// checkpoint's k, and Metric = "" adopts the metric the manifest
// records; naming another metric is an error, because the resumed
// similarities would mix two metrics. (A manifest written before the
// metric was recorded takes Options.Metric as given, "" meaning cosine.)
// The pool's OpenWAL replays each shard's log above the horizon the
// manifest recorded.
func LoadShardedMaintainer(dir string, opts Options) (*ShardedMaintainer, error) {
	return loadShardedMaintainer(dir, opts, false)
}

// LoadShardedMaintainerMapped is LoadShardedMaintainer over the
// zero-copy load path: every shard's graph and dataset are memory-mapped
// (LoadGraphMapped, LoadDatasetMapped). The graph mappings are closed
// once their heaps are seeded; the dataset mappings back the live
// datasets and stay mapped for the life of the process — the cold-start
// mode of a long-lived server (kiffserve -pool honors -mmap through
// this).
func LoadShardedMaintainerMapped(dir string, opts Options) (*ShardedMaintainer, error) {
	return loadShardedMaintainer(dir, opts, true)
}

func loadShardedMaintainer(dir string, opts Options, mapped bool) (*ShardedMaintainer, error) {
	man, opts, err := readCheckpoint(dir, opts)
	if err != nil {
		return nil, err
	}
	return shard.Load(dir, man, func(gpath, dpath string) (shard.Maintainer, error) {
		g, d, closeGraph, err := loadPair(gpath, dpath, mapped)
		if err != nil {
			return nil, err
		}
		m, err := NewMaintainerFromGraph(d, g, opts)
		// Seeding reads the graph once; its mapping can go.
		if cerr := closeGraph(); err == nil && cerr != nil {
			return nil, cerr
		}
		if err != nil {
			return nil, err
		}
		return maintainerShard{m}, nil
	})
}

// LoadShardedView serves a checkpoint directory written by
// ShardedMaintainer.Save read-only: every shard's graph and dataset are
// loaded (memory-mapped when mapped is set, and then never unmapped) and
// wrapped in a static Snapshot (NewSnapshot), and the View is pinned
// over them — no Maintainer, no writer. Options supplies the query
// metric, as in NewSnapshot, and is reconciled with the metric the
// manifest records as in LoadShardedMaintainer.
func LoadShardedView(dir string, opts Options, mapped bool) (*shard.View, error) {
	man, opts, err := readCheckpoint(dir, opts)
	if err != nil {
		return nil, err
	}
	return shard.LoadView(dir, man, func(gpath, dpath string) (shard.Reader, error) {
		g, d, _, err := loadPair(gpath, dpath, mapped)
		if err != nil {
			return nil, err
		}
		return NewSnapshot(g, d, opts)
	})
}

// readCheckpoint reads dir's manifest and settles the metric the
// checkpoint is served under: the one the manifest records, which
// Options.Metric may name (under any alias) but not contradict; ""
// adopts it. A manifest without a metric leaves Options as given.
func readCheckpoint(dir string, opts Options) (shard.Manifest, Options, error) {
	man, err := shard.ReadManifest(dir)
	if err != nil || man.Metric == "" {
		return man, opts, err
	}
	if opts.Metric != "" {
		metric, err := opts.metric()
		if err != nil {
			return man, opts, err
		}
		if metric.Name() != man.Metric {
			return man, opts, fmt.Errorf("kiff: checkpoint %s was maintained under metric %q, not %q (omit the metric to adopt the checkpoint's)",
				dir, man.Metric, opts.Metric)
		}
	}
	opts.Metric = man.Metric
	return man, opts, nil
}

// loadPair loads one shard's graph and dataset files, through the heap
// decoders or the file mappings. closeGraph releases the graph mapping
// (a no-op for heap loads); the dataset mapping is never released — it
// backs the dataset for the life of the process.
func loadPair(gpath, dpath string, mapped bool) (g *Graph, d *Dataset, closeGraph func() error, err error) {
	if !mapped {
		if g, err = LoadGraph(gpath); err != nil {
			return nil, nil, nil, err
		}
		if d, err = LoadDataset(dpath); err != nil {
			return nil, nil, nil, err
		}
		return g, d, func() error { return nil }, nil
	}
	mg, err := LoadGraphMapped(gpath)
	if err != nil {
		return nil, nil, nil, err
	}
	md, err := LoadDatasetMapped(dpath)
	if err != nil {
		mg.Close()
		return nil, nil, nil, err
	}
	return mg.Graph(), md.Dataset(), mg.Close, nil
}

// shardName labels shard s's dataset partition.
func shardName(name string, s, shards int) string {
	return fmt.Sprintf("%s#shard%d/%d", name, s, shards)
}
