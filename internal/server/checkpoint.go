package server

import (
	"errors"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"regexp"
	"strconv"

	"kiff/internal/shard"
)

// A checkpoint is the directory shard.Pool.Save writes: per-shard
// graph.i.kfg/data.i.kfd plus the manifest, written last. A restarting
// kiffserve consumes it via -pool — or, with -wal, finds the latest
// generation itself (LatestCheckpoint).

// ckptGenRe matches generation-named checkpoint directories.
var ckptGenRe = regexp.MustCompile(`^ckpt-(\d+)$`)

// nextCheckpointGen scans root and returns one past the highest
// generation any ckpt-N entry carries — complete or not, so a crashed
// half-written generation is never reused (a restarted reader may still
// be serving mmap-backed files out of an old directory). A missing root
// starts at 1; the generation counter thereby persists across restarts
// in the directory names themselves.
func nextCheckpointGen(root string) uint64 {
	entries, err := os.ReadDir(root)
	if err != nil {
		return 1
	}
	var max uint64
	for _, e := range entries {
		m := ckptGenRe.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		if g, err := strconv.ParseUint(m[1], 10, 64); err == nil && g > max {
			max = g
		}
	}
	return max + 1
}

// LatestCheckpoint returns the newest complete checkpoint under root:
// the highest-generation ckpt-N directory holding a manifest (written
// last, so its presence marks the checkpoint complete). ok is false when root has none — the cold-start case.
// Picking latest here, rather than trusting the caller to remember a
// path, is what keeps restart-with-WAL safe: the logs were rotated
// against the newest checkpoint, so replaying on top of an older one
// would have a gap (which wal.Open detects and refuses).
func LatestCheckpoint(root string) (dir string, ok bool) {
	entries, err := os.ReadDir(root)
	if err != nil {
		return "", false
	}
	var best uint64
	for _, e := range entries {
		m := ckptGenRe.FindStringSubmatch(e.Name())
		if m == nil {
			continue
		}
		g, err := strconv.ParseUint(m[1], 10, 64)
		if err != nil || g <= best {
			continue
		}
		p := filepath.Join(root, e.Name())
		if _, err := os.Stat(filepath.Join(p, shard.ManifestFile)); err == nil {
			best, dir, ok = g, p, true
		}
	}
	return dir, ok
}

// handleCheckpoint runs a checkpoint through the writer queue: the save
// executes on the writer goroutine between batches, so it observes a
// quiesced pool that includes every mutation acknowledged before
// it — the on-demand durability point the chaos harness restarts from.
// Only routed when Config.CheckpointDir is set; read-only servers
// return 403 like any other mutation.
func (s *Server) handleCheckpoint(w http.ResponseWriter, r *http.Request) {
	res := s.enqueue(r, op{kind: opCheckpoint})
	if res.err != nil {
		httpError(w, mutationStatus(res.err), res.err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"dir":     res.dir,
		"version": res.version,
	})
}

// checkpoint saves the current writer state into the next
// generation-numbered subdirectory of Config.CheckpointDir and returns
// it. Writer-only. The generation counter was seeded from a directory
// scan at startup (nextCheckpointGen), so a restarted server continues
// the sequence on its own — no external numbering required — and a
// later LatestCheckpoint finds this save by its generation.
func (s *Server) checkpoint() (string, error) {
	dir := filepath.Join(s.cfg.CheckpointDir, fmt.Sprintf("ckpt-%d", s.ckptSeq))
	if err := s.pool.Save(dir); err != nil {
		return dir, err
	}
	s.ckptSeq++
	return dir, nil
}

// SaveFinal checkpoints the writer state into dir after the server has
// been closed — the graceful-shutdown save kiffserve runs so a SIGTERM
// never discards acknowledged mutations (Close flushed the queue, so
// "acknowledged" and "applied" coincide by the time this runs). It must
// only be called once Close has returned; while the writer is live, use
// POST /checkpoint instead.
//
// SaveFinal refuses to run with a write-ahead log attached: saving
// rotates the logs, and a rotation against a directory the startup scan
// does not consider "latest" would strand the discarded records. A
// logged server does not need a final save — its log already holds
// every acknowledged mutation, and boot replays it.
func (s *Server) SaveFinal(dir string) error {
	if s.readOnly() {
		return errReadOnly
	}
	if s.walAttached() {
		return errors.New("server: SaveFinal with a write-ahead log attached (the log is the shutdown durability; checkpoint via POST /checkpoint instead)")
	}
	select {
	case <-s.done:
	default:
		return errors.New("server: SaveFinal requires Close first (the writer still owns the state)")
	}
	return s.pool.Save(dir)
}
