package shard

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"kiff/internal/dataset"
	"kiff/internal/fsio"
	"kiff/internal/parallel"
)

// ManifestSchema identifies the sharded-checkpoint manifest format.
const ManifestSchema = "kiff/shard-manifest/v1"

// ManifestFile is the manifest's file name inside a checkpoint
// directory.
const ManifestFile = "manifest.json"

// GraphFile names shard i's graph checkpoint inside the directory.
func GraphFile(i int) string { return fmt.Sprintf("graph.%d.kfg", i) }

// DataFile names shard i's dataset checkpoint inside the directory.
func DataFile(i int) string { return fmt.Sprintf("data.%d.kfd", i) }

// Manifest describes a sharded checkpoint directory: N per-shard graph +
// dataset files plus the few numbers needed to re-derive the user→shard
// mapping (the assignment itself is a pure function of Users, Shards and
// the pinned Hash scheme, so it is never serialized).
type Manifest struct {
	// Schema is ManifestSchema.
	Schema string `json:"schema"`
	// Shards is the shard count N; shard i's files are GraphFile(i) and
	// DataFile(i).
	Shards int `json:"shards"`
	// Users is the total number of global user IDs at save time.
	Users int `json:"users"`
	// K is the per-shard neighborhood size.
	K int `json:"k"`
	// Metric is the canonical name of the similarity metric the graphs
	// were maintained under. Loaders adopt it, and refuse to serve the
	// graphs under another metric. Absent from the manifests of older
	// releases, whose loaders take the metric from the caller; the
	// schema stays v1 because old readers ignore the field.
	Metric string `json:"metric,omitempty"`
	// Hash names the Owner scheme the assignment was derived with.
	Hash string `json:"hash"`
	// ShardUsers records each shard's population — redundant with
	// (Users, Shards, Hash), kept as a cheap integrity cross-check
	// against mismatched or truncated per-shard files.
	ShardUsers []int `json:"shard_users"`
	// WalLSNs, present when the pool was saved with write-ahead logs
	// attached, records each shard's log horizon at capture time: shard
	// i's checkpoint files cover its log records 1..WalLSNs[i], so replay
	// resumes above that. Absent (nil) for pools saved without logging —
	// the schema stays v1 because old readers ignore the field and a nil
	// horizon (replay everything) is exactly right for such checkpoints.
	WalLSNs []uint64 `json:"wal_lsns,omitempty"`
}

// WalFile names shard i's write-ahead log inside a WAL directory,
// alongside GraphFile/DataFile naming in checkpoint directories.
func WalFile(i int) string { return fmt.Sprintf("wal.%d.kfl", i) }

// Save checkpoints the pool into dir (created if missing): one graph and
// one dataset file per shard plus ManifestFile, written last and moved
// into place atomically (fsio.Write) — a directory containing a readable
// manifest is a complete checkpoint. When dir already holds a
// checkpoint, its manifest is removed before any shard file is touched,
// so a crash mid-save leaves a directory that fails to load (no
// manifest) rather than an old manifest silently validating
// mixed-generation shard files; keep generations in separate directories
// if rollback matters.
//
// Save holds the assignment lock and every shard lock for the duration:
// the manifest's population counts — and, with write-ahead logs
// attached, its per-shard wal_lsns — must describe the exact instant the
// shard files capture, and a mutation slipping into one shard between
// its capture and the log rotation below would be discarded by that
// rotation. Concurrent reads keep serving; concurrent mutations block.
//
// With logs attached (see WALMaintainer) the shard files and manifest
// are written durably (fsynced through the rename), then each shard's
// log is rotated — the rotation only ever discards records the durable
// checkpoint covers. A crash anywhere in between leaves either the old
// manifest-less directory plus full logs, or the new checkpoint plus
// not-yet-rotated logs whose covered prefix replay skips by LSN.
func (p *Pool) Save(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("shard: save: %w", err)
	}
	if err := os.Remove(filepath.Join(dir, ManifestFile)); err != nil && !os.IsNotExist(err) {
		return fmt.Errorf("shard: save: %w", err)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, sl := range p.shards {
		sl.mu.Lock()
		defer sl.mu.Unlock()
	}
	m := p.mapping.Load()
	man := Manifest{
		Schema:     ManifestSchema,
		Shards:     len(p.shards),
		Users:      len(m.owner),
		K:          p.k,
		Metric:     p.metric,
		Hash:       hashScheme,
		ShardUsers: make([]int, len(p.shards)),
	}
	for i := range p.shards {
		man.ShardUsers[i] = len(m.global[i])
	}
	logged := 0
	for _, sl := range p.shards {
		if wm, ok := sl.m.(WALMaintainer); ok && wm.WALAttached() {
			logged++
		}
	}
	if logged > 0 && logged < len(p.shards) {
		return fmt.Errorf("shard: save: %d of %d shards have a write-ahead log attached — all or none", logged, len(p.shards))
	}
	walled := logged == len(p.shards)
	if walled {
		man.WalLSNs = make([]uint64, len(p.shards))
		for i, sl := range p.shards {
			man.WalLSNs[i] = sl.m.(WALMaintainer).WALLastLSN()
		}
	}
	persist := fsio.Write
	if walled {
		// The rotation below discards log records; the files standing in
		// for them must survive everything the log would have.
		persist = fsio.WriteDurable
	}
	for i, sl := range p.shards {
		if err := saveShard(dir, i, sl, persist); err != nil {
			return fmt.Errorf("shard: save shard %d: %w", i, err)
		}
	}
	raw, err := json.MarshalIndent(man, "", "  ")
	if err != nil {
		return fmt.Errorf("shard: save: %w", err)
	}
	raw = append(raw, '\n')
	if err := persist(filepath.Join(dir, ManifestFile), func(f *os.File) error {
		_, err := f.Write(raw)
		return err
	}); err != nil {
		return fmt.Errorf("shard: save: %w", err)
	}
	if walled {
		for i, sl := range p.shards {
			if err := sl.m.(WALMaintainer).WALRotate(); err != nil {
				return fmt.Errorf("shard: save: rotate shard %d log: %w", i, err)
			}
		}
	}
	return nil
}

// saveShard writes one shard's graph and dataset; the caller holds the
// shard lock.
func saveShard(dir string, i int, sl *slot, persist func(string, func(*os.File) error) error) error {
	if err := persist(filepath.Join(dir, GraphFile(i)), func(f *os.File) error {
		_, err := sl.m.Graph().WriteTo(f)
		return err
	}); err != nil {
		return err
	}
	return persist(filepath.Join(dir, DataFile(i)), func(f *os.File) error {
		return dataset.WriteBinary(f, sl.m.Dataset())
	})
}

// Load assembles a pool from a checkpoint directory written by Save,
// given its manifest as ReadManifest returned it: open rebuilds each
// shard's maintainer from its graph and dataset files (in parallel
// across shards), and NewPool re-derives and cross-checks the
// user→shard assignment. The pool remembers the manifest's wal_lsns as
// the horizons OpenWAL replays above.
func Load(dir string, man Manifest, open func(gpath, dpath string) (Maintainer, error)) (*Pool, error) {
	ms, err := loadShards(dir, man, open)
	if err != nil {
		return nil, err
	}
	p, err := NewPool(ms, man.Users)
	if err != nil {
		return nil, err
	}
	p.walFrom = man.WalLSNs
	return p, nil
}

// LoadView is Load for read-only serving: open builds each shard's
// Reader straight from its files, and the result is a View pinned over
// them (NewView) — no maintainer, no writer.
func LoadView(dir string, man Manifest, open func(gpath, dpath string) (Reader, error)) (*View, error) {
	rs, err := loadShards(dir, man, open)
	if err != nil {
		return nil, err
	}
	return NewView(rs, man.Users)
}

// loadShards runs open over every shard's file pair in parallel.
func loadShards[T any](dir string, man Manifest, open func(gpath, dpath string) (T, error)) ([]T, error) {
	out := make([]T, man.Shards)
	g := parallel.NewGroup(man.Shards)
	for i := range out {
		g.Go(func() error {
			v, err := open(filepath.Join(dir, GraphFile(i)), filepath.Join(dir, DataFile(i)))
			if err != nil {
				return fmt.Errorf("shard: load shard %d: %w", i, err)
			}
			out[i] = v
			return nil
		})
	}
	if err := g.Wait(); err != nil {
		return nil, err
	}
	return out, nil
}

// ReadManifest loads and validates a checkpoint directory's manifest,
// the input of Load and LoadView.
func ReadManifest(dir string) (Manifest, error) {
	raw, err := os.ReadFile(filepath.Join(dir, ManifestFile))
	if err != nil {
		return Manifest{}, fmt.Errorf("shard: manifest: %w", err)
	}
	var man Manifest
	if err := json.Unmarshal(raw, &man); err != nil {
		return Manifest{}, fmt.Errorf("shard: manifest: %w", err)
	}
	if man.Schema != ManifestSchema {
		return Manifest{}, fmt.Errorf("shard: manifest: schema %q, want %q", man.Schema, ManifestSchema)
	}
	if man.Hash != hashScheme {
		return Manifest{}, fmt.Errorf("shard: manifest: hash scheme %q, want %q", man.Hash, hashScheme)
	}
	if man.Shards < 1 || man.Shards > MaxShards {
		return Manifest{}, fmt.Errorf("shard: manifest: shard count %d outside 1..%d", man.Shards, MaxShards)
	}
	if man.Users < 0 {
		return Manifest{}, fmt.Errorf("shard: manifest: negative user count %d", man.Users)
	}
	if len(man.ShardUsers) != man.Shards {
		return Manifest{}, fmt.Errorf("shard: manifest: %d shard_users entries for %d shards", len(man.ShardUsers), man.Shards)
	}
	if man.WalLSNs != nil && len(man.WalLSNs) != man.Shards {
		return Manifest{}, fmt.Errorf("shard: manifest: %d wal_lsns entries for %d shards", len(man.WalLSNs), man.Shards)
	}
	counts := make([]int, man.Shards)
	for g := 0; g < man.Users; g++ {
		counts[Owner(uint32(g), man.Shards)]++
	}
	for i, want := range counts {
		if man.ShardUsers[i] != want {
			return Manifest{}, fmt.Errorf("shard: manifest: shard %d records %d users, the %d-user/%d-shard partition owns %d",
				i, man.ShardUsers[i], man.Users, man.Shards, want)
		}
	}
	return man, nil
}
