package e2e

import (
	"fmt"
	"math/rand"
	"net/http"
	"os/exec"
	"path/filepath"
	"testing"
	"time"
)

// The zero-loss chaos oracle: the same black-box action stream as
// runChaos, but the kiffserve under test runs with -wal, which upgrades
// the crash contract from "roll back to the last acknowledged
// checkpoint" to "lose nothing acknowledged, ever". The in-process
// oracle therefore NEVER restarts — it just keeps applying mutations —
// and after every SIGKILL the resurrected server must agree with it
// exactly, including one crash forced mid-append (a torn final log
// frame the recovery path must truncate).

func TestChaosWALUnsharded(t *testing.T) { runChaosWAL(t, false) }
func TestChaosWALSharded(t *testing.T)   { runChaosWAL(t, true) }

// startWAL boots a crash-lossless incarnation: a stable -checkpoint
// root and -wal directory across restarts (the server scans for the
// newest complete generation and replays the log itself), with the
// cold-start source flags passed every time — they only matter on the
// very first boot, before any checkpoint exists.
func (s *sut) startWAL(gpath, dpath string) {
	args := []string{
		"-queue", fmt.Sprint(chaosQueueDepth),
		"-checkpoint", s.ckptRoot,
		"-wal", s.walDir,
		"-wal-sync", "always",
	}
	s.p = startServer(s.t, s.bin, append(args, s.coldArgs(gpath, dpath)...)...)
}

func runChaosWAL(t *testing.T, sharded bool) {
	if testing.Short() {
		t.Skip("chaos run skipped in -short (CI runs it in the e2e-chaos job)")
	}
	seed := envInt64("KIFF_CHAOS_SEED", defaultChaosSeed)
	n := int(envInt64("KIFF_CHAOS_ACTIONS", defaultChaosActions))
	t.Logf("zero-loss chaos run: seed=%d actions=%d sharded=%v (reproduce: KIFF_CHAOS_SEED=%d KIFF_CHAOS_ACTIONS=%d go test -run %s ./test/e2e/)",
		seed, n, sharded, seed, n, t.Name())

	serveBin, knnBin := buildBinaries(t)
	work := t.TempDir()
	edges := writeSeedEdgeList(t, work, seed)
	gpath := filepath.Join(work, "graph.kfg")
	dpath := filepath.Join(work, "data.kfd")
	runKiffknn(t, knnBin, edges, chaosK, gpath, dpath)

	// The oracle runs WAL-less and restart-less: with zero loss on the
	// other side there is nothing to mirror a crash with.
	orc := newOracle(t, gpath, dpath, filepath.Join(work, "oracle-ckpt"), chaosQueueDepth)
	s := &sut{t: t, bin: serveBin, sharded: sharded,
		ckptRoot: filepath.Join(work, "sut-ckpt"), walDir: filepath.Join(work, "sut-wal")}
	s.startWAL(gpath, dpath)

	u1, _, _ := healthz(t, s.url())
	u2, _, _ := healthz(t, orc.url())
	if u1 != chaosInitialUsers || u2 != chaosInitialUsers {
		t.Fatalf("boot populations: sut=%d oracle=%d, want %d", u1, u2, chaosInitialUsers)
	}

	actions := GenStream(StreamConfig{
		Seed:         seed,
		N:            n,
		InitialUsers: chaosInitialUsers,
		Items:        chaosItems,
		QueueDepth:   chaosQueueDepth,
		Restarts:     true,
		ReadonlyFlip: false, // -readonly is incompatible with -wal
		ZeroLoss:     true,
	})

	var restarts, backpressures, checkpoints int
	for i, a := range actions {
		switch a.Kind {
		case ActAddUser:
			body := map[string]any{"profile": a.Profile}
			st1, b1 := doJSON(t, http.MethodPost, s.url()+"/users", body)
			st2, b2 := doJSON(t, http.MethodPost, orc.url()+"/users", body)
			if st1 != http.StatusCreated || st2 != http.StatusCreated {
				t.Fatalf("action %d AddUser: statuses sut=%d oracle=%d", i, st1, st2)
			}
			if id1, id2 := jsonField(t, b1, "id"), jsonField(t, b2, "id"); id1 != id2 {
				t.Fatalf("action %d AddUser: ids diverged sut=%s oracle=%s", i, id1, id2)
			}
		case ActAddRating:
			body := map[string]any{"user": a.User, "item": a.Item, "rating": a.Rating}
			st1, b1 := doJSON(t, http.MethodPost, s.url()+"/ratings", body)
			st2, _ := doJSON(t, http.MethodPost, orc.url()+"/ratings", body)
			if st1 != http.StatusOK || st2 != http.StatusOK {
				t.Fatalf("action %d AddRating %+v: statuses sut=%d oracle=%d (%s)", i, body, st1, st2, b1)
			}
		case ActQuery:
			body := map[string]any{"profile": a.Query, "k": a.K}
			st1, b1 := doJSON(t, http.MethodPost, s.url()+"/query", body)
			st2, b2 := doJSON(t, http.MethodPost, orc.url()+"/query", body)
			if st1 != http.StatusOK || st2 != http.StatusOK {
				t.Fatalf("action %d Query: statuses sut=%d oracle=%d", i, st1, st2)
			}
			if r1, r2 := jsonField(t, b1, "results"), jsonField(t, b2, "results"); r1 != r2 {
				t.Fatalf("action %d Query diverged\n sut:    %s\n oracle: %s", i, r1, r2)
			}
		case ActNeighbors:
			path := fmt.Sprintf("/neighbors/%d", a.Target)
			st1, b1 := doJSON(t, http.MethodGet, s.url()+path, nil)
			st2, b2 := doJSON(t, http.MethodGet, orc.url()+path, nil)
			if st1 != st2 {
				t.Fatalf("action %d Neighbors(%d): statuses sut=%d oracle=%d", i, a.Target, st1, st2)
			}
			if st1 != http.StatusOK {
				t.Fatalf("action %d Neighbors(%d): status %d (generator promised a live user)", i, a.Target, st1)
			}
			if !sharded {
				if n1, n2 := jsonField(t, b1, "neighbors"), jsonField(t, b2, "neighbors"); n1 != n2 {
					t.Fatalf("action %d Neighbors(%d) diverged\n sut:    %s\n oracle: %s", i, a.Target, n1, n2)
				}
			} else if jsonField(t, b1, "neighbors") == "" {
				t.Fatalf("action %d Neighbors(%d): sharded reply missing neighbors: %s", i, a.Target, b1)
			}
		case ActCheckpoint:
			// Only the system under test checkpoints: it rotates the log
			// (the crash-recovery artifact being exercised); the oracle
			// has no crashes to recover from.
			checkpoints++
			checkpoint(t, s.url())
		case ActBackpressure:
			backpressures++
			s.runBackpressure(t, i, a, orc)
		case ActKillRestart:
			// The zero-loss contract, mid-stream: SIGKILL, restart with the
			// same stable directories, and the server must come back with
			// every acknowledged mutation — the oracle keeps running as the
			// definition of "everything acknowledged".
			restarts++
			s.p.kill(t)
			s.startWAL(gpath, dpath)
			u1, _, _ := healthz(t, s.url())
			u2, _, _ := healthz(t, orc.url())
			if u1 != u2 {
				t.Fatalf("action %d KillRestart: lost acknowledged mutations: sut=%d users, oracle=%d", i, u1, u2)
			}
		}
	}
	if restarts == 0 || backpressures == 0 || checkpoints == 0 {
		t.Fatalf("stream exercised %d restarts, %d backpressure episodes, %d checkpoints; all must be ≥ 1",
			restarts, backpressures, checkpoints)
	}
	t.Logf("zero-loss action stream done: %d actions, %d kill+restarts, %d backpressure episodes, %d checkpoints",
		len(actions), restarts, backpressures, checkpoints)

	// --- Forced mid-append crash: the torn-tail recovery path, live ------
	s.tornAppendCrash(t, orc, gpath, dpath)

	// --- Convergence: byte-identical to the never-restarted oracle ------
	u1, _, _ = healthz(t, s.url())
	u2, _, _ = healthz(t, orc.url())
	if u1 != u2 {
		t.Fatalf("final populations diverged: sut=%d oracle=%d", u1, u2)
	}
	if !sharded {
		for u := 0; u < u1; u++ {
			path := fmt.Sprintf("/neighbors/%d", u)
			_, b1 := doJSON(t, http.MethodGet, s.url()+path, nil)
			_, b2 := doJSON(t, http.MethodGet, orc.url()+path, nil)
			if n1, n2 := jsonField(t, b1, "neighbors"), jsonField(t, b2, "neighbors"); n1 != n2 {
				t.Fatalf("final neighbors(%d) diverged\n sut:    %s\n oracle: %s", u, n1, n2)
			}
		}
	}
	probes := 20
	if sharded {
		probes = 30
	}
	prng := rand.New(rand.NewSource(seed*31 + 17))
	for p := 0; p < probes; p++ {
		body := probeQuery(prng)
		_, b1 := doJSON(t, http.MethodPost, s.url()+"/query", body)
		_, b2 := doJSON(t, http.MethodPost, orc.url()+"/query", body)
		if r1, r2 := jsonField(t, b1, "results"), jsonField(t, b2, "results"); r1 != r2 {
			t.Fatalf("final probe %d diverged\n sut:    %s\n oracle: %s", p, r1, r2)
		}
	}
	t.Logf("converged: %d users byte-identical to a never-restarted oracle, %d probe queries byte-identical", u1, probes)
}

// tornAppendCrash exercises the hardest recovery case end-to-end: arm
// the one-shot wal_tear fault, send one insert — the server writes half
// of that record's log frame and SIGKILLs itself before acknowledging —
// then restart and require (a) the torn frame was physically truncated,
// (b) the unacknowledged insert is gone (it must NOT reach the oracle),
// and (c) nothing acknowledged before it was lost.
func (s *sut) tornAppendCrash(t *testing.T, orc *oracle, gpath, dpath string) {
	t.Helper()
	before, _, _ := healthz(t, s.url())
	if st, b := doJSON(t, http.MethodPost, s.url()+"/faults", map[string]any{"wal_tear": true}); st != http.StatusOK {
		t.Fatalf("torn append: arming failed: %d %s", st, b)
	}
	st, body, err := tryJSON(http.MethodPost, s.url()+"/users", map[string]any{"profile": map[uint32]float64{1: 3, 4: 2}})
	if err == nil && st == http.StatusCreated {
		t.Fatalf("torn append: the doomed insert was acknowledged (%d %s) — ack must follow the append", st, body)
	}
	select {
	case <-s.p.exitc:
	case <-time.After(30 * time.Second):
		t.Fatalf("torn append: server did not die\n%s", s.p.stderrText())
	}
	if ee, ok := s.p.exitErr.(*exec.ExitError); !ok || ee.ExitCode() != 3 {
		t.Fatalf("torn append: exit = %v, want exit status 3 (the injected mid-append kill)\n%s",
			s.p.exitErr, s.p.stderrText())
	}
	s.startWAL(gpath, dpath)
	replayed, truncated, _ := walStats(t, s.url())
	if truncated == 0 {
		t.Fatalf("torn append: recovery truncated 0 bytes — the half-written frame was not detected (replayed=%d)\n%s",
			replayed, s.p.stderrText())
	}
	after, _, _ := healthz(t, s.url())
	if after != before {
		t.Fatalf("torn append: population %d after recovery, want %d (unacknowledged insert must vanish, acknowledged state must survive)",
			after, before)
	}
	t.Logf("torn append recovered: truncated %d bytes, replayed %d records, population intact at %d", truncated, replayed, after)
}
