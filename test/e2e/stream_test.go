package e2e

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
)

// ActionKind enumerates the chaos actions the generator emits.
type ActionKind int

const (
	ActAddUser ActionKind = iota
	ActAddRating
	ActQuery
	ActNeighbors
	ActCheckpoint
	ActBackpressure
	ActKillRestart
	ActReadonlyFlip
	// Hardened actions (cfg.Hardened): admission-control probes. Both
	// are read-side or denied-before-apply, so they can never diverge
	// the mutable state between the system under test and the oracle.
	ActAuthFail
	ActRateLimitBurst
)

func (k ActionKind) String() string {
	return [...]string{"AddUser", "AddRating", "Query", "Neighbors",
		"Checkpoint", "Backpressure", "KillRestart", "ReadonlyFlip",
		"AuthFail", "RateLimitBurst"}[k]
}

// Action is one step of a chaos run. Which fields are meaningful
// depends on Kind; everything is materialized at generation time so the
// stream is a pure function of its StreamConfig.
type Action struct {
	Kind    ActionKind
	Profile map[uint32]float64   // AddUser: the inserted profile
	User    uint32               // AddRating
	Item    uint32               // AddRating
	Rating  float64              // AddRating
	Query   map[uint32]float64   // Query: the probe profile
	K       int                  // Query
	Target  uint32               // Neighbors: user to look up
	Burst   []map[uint32]float64 // Backpressure: concurrent insert profiles
	Variant int                  // AuthFail: 0 = unknown key (401), 1 = read key on a mutation (403)
}

// StreamConfig parameterizes generation. Workers is deliberately
// ignored: the stream must be identical however much execution
// parallelism the harness later applies — the determinism contract the
// table test pins.
type StreamConfig struct {
	Seed         int64
	N            int  // number of actions
	InitialUsers int  // population at stream start (checkpointed)
	Items        int  // item-ID space for profiles and ratings
	QueueDepth   int  // server queue depth (sizes backpressure bursts)
	Restarts     bool // emit KillRestart/ReadonlyFlip/Checkpoint actions
	ReadonlyFlip bool // emit ReadonlyFlip (off where -readonly cannot run, e.g. with -wal)
	ZeroLoss     bool // WAL mode: a KillRestart loses nothing, so no rollback
	Hardened     bool // emit AuthFail/RateLimitBurst (server must run with auth + rate limiting)
	Workers      int  // ignored; see the determinism contract above
}

// GenStream derives a deterministic action sequence from cfg. The
// generator tracks the population the way the system under test will
// experience it — inserts grow it, a KillRestart rolls it back to the
// last checkpoint — so every AddRating/Neighbors action targets a user
// that will exist when the action executes. One Backpressure and one
// KillRestart are always forced in (at N/3 and 2N/3) so even short
// streams exercise both; a Checkpoint is forced right before the first
// possible KillRestart index so a restart never has nothing to reload.
func GenStream(cfg StreamConfig) []Action {
	rng := rand.New(rand.NewSource(cfg.Seed))
	cur := cfg.InitialUsers  // live population
	last := cfg.InitialUsers // population at the last checkpoint
	profile := func() map[uint32]float64 {
		n := 2 + rng.Intn(5)
		p := make(map[uint32]float64, n)
		for len(p) < n {
			p[uint32(rng.Intn(cfg.Items))] = float64(1 + rng.Intn(5))
		}
		return p
	}
	actions := make([]Action, 0, cfg.N)
	for i := 0; i < cfg.N; i++ {
		var kind ActionKind
		switch {
		case cfg.Restarts && i == cfg.N/3:
			kind = ActBackpressure
		case cfg.Restarts && i == 2*cfg.N/3-1:
			kind = ActCheckpoint
		case cfg.Restarts && i == 2*cfg.N/3:
			kind = ActKillRestart
		case cfg.Hardened && i == cfg.N/4:
			kind = ActAuthFail
		case cfg.Hardened && i == cfg.N/2:
			kind = ActRateLimitBurst
		default:
			// Weighted draw; the forced indices above are fixed by cfg
			// alone, so they never perturb the rng sequence.
			switch w := rng.Intn(100); {
			case w < 25:
				kind = ActAddUser
			case w < 55:
				kind = ActAddRating
			case w < 75:
				// Hardened streams carve the admission probes out of the top
				// of the query range, so a non-hardened config draws the
				// exact same sequence it always did.
				switch {
				case cfg.Hardened && w >= 73:
					kind = ActRateLimitBurst
				case cfg.Hardened && w >= 70:
					kind = ActAuthFail
				default:
					kind = ActQuery
				}
			case w < 88:
				kind = ActNeighbors
			case w < 93 && cfg.Restarts:
				kind = ActCheckpoint
			case w < 96 && cfg.Restarts:
				kind = ActBackpressure
			case w < 98 && cfg.Restarts:
				kind = ActKillRestart
			case w < 100 && cfg.Restarts && cfg.ReadonlyFlip:
				kind = ActReadonlyFlip
			default:
				kind = ActQuery
			}
		}
		a := Action{Kind: kind}
		switch kind {
		case ActAddUser:
			a.Profile = profile()
			cur++
		case ActAddRating:
			a.User = uint32(rng.Intn(cur))
			a.Item = uint32(rng.Intn(cfg.Items))
			a.Rating = float64(1 + rng.Intn(5))
		case ActQuery:
			a.Query = profile()
			a.K = 3 + rng.Intn(6)
		case ActNeighbors:
			a.Target = uint32(rng.Intn(cur))
		case ActCheckpoint:
			last = cur
		case ActBackpressure:
			burst := cfg.QueueDepth + 2
			a.Burst = make([]map[uint32]float64, burst)
			for b := range a.Burst {
				a.Burst[b] = profile()
			}
			cur += burst
		case ActKillRestart:
			// Without a WAL, SIGKILL forfeits everything since the last
			// acknowledged checkpoint — on both the system under test and
			// the oracle. With one (ZeroLoss), every acknowledged mutation
			// survives the crash, so the population never rolls back.
			if !cfg.ZeroLoss {
				cur = last
			}
		case ActReadonlyFlip:
			// Checkpoint, restart read-only, restart mutable: state is
			// preserved through the flip.
			last = cur
		case ActAuthFail:
			// A mutation attempt that must be denied (401 for an unknown
			// key, 403 for a read-scoped one). The profile is the payload
			// the server must refuse to apply — the population stays put.
			a.Variant = rng.Intn(2)
			a.Profile = profile()
		case ActRateLimitBurst:
			// A read burst through a zero-refill key: the first `burst`
			// requests succeed, the rest are 429 — deterministically,
			// because an empty bucket with rate 0 never refills, however
			// the wall clock drifts between the two sides.
			a.Query = profile()
			a.K = 3 + rng.Intn(6)
		}
		actions = append(actions, a)
	}
	return actions
}

// streamStats counts action kinds — the acceptance-criteria accounting.
func streamStats(actions []Action) map[ActionKind]int {
	m := make(map[ActionKind]int)
	for _, a := range actions {
		m[a.Kind]++
	}
	return m
}

// TestActionStreamDeterministic pins the reproduce-from-seed contract:
// the same seed yields a deeply equal action sequence across repeated
// generations and across worker counts, and different seeds diverge.
func TestActionStreamDeterministic(t *testing.T) {
	base := StreamConfig{
		N: 250, InitialUsers: 60, Items: 40, QueueDepth: 8,
		Restarts: true, ReadonlyFlip: true,
	}
	for _, seed := range []int64{1, 7, 12345, -99} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			cfg := base
			cfg.Seed = seed
			ref := GenStream(cfg)
			// Same seed, repeated runs, any worker count: identical.
			for _, workers := range []int{0, 1, 4, 16} {
				c := cfg
				c.Workers = workers
				if got := GenStream(c); !reflect.DeepEqual(got, ref) {
					t.Fatalf("stream diverged for workers=%d", workers)
				}
			}
			// A different seed must not reproduce the stream (else the
			// "deterministic" claim is vacuous).
			c := cfg
			c.Seed = seed + 1
			if reflect.DeepEqual(GenStream(c), ref) {
				t.Fatal("seed+1 generated an identical stream")
			}
		})
	}
}

// TestActionStreamShape: generated streams respect their own
// population simulation (every rating/neighbor target below the live
// count at that index) and always include the forced crash and
// backpressure episodes.
func TestActionStreamShape(t *testing.T) {
	cfg := StreamConfig{
		Seed: 7, N: 250, InitialUsers: 60, Items: 40, QueueDepth: 8,
		Restarts: true, ReadonlyFlip: true,
	}
	actions := GenStream(cfg)
	if len(actions) != cfg.N {
		t.Fatalf("generated %d actions, want %d", len(actions), cfg.N)
	}
	cur, last := cfg.InitialUsers, cfg.InitialUsers
	for i, a := range actions {
		switch a.Kind {
		case ActAddUser:
			if len(a.Profile) == 0 {
				t.Fatalf("action %d: empty insert profile", i)
			}
			cur++
		case ActAddRating:
			if int(a.User) >= cur {
				t.Fatalf("action %d: rating targets user %d, only %d live", i, a.User, cur)
			}
		case ActQuery:
			if len(a.Query) == 0 || a.K <= 0 {
				t.Fatalf("action %d: malformed query %+v", i, a)
			}
		case ActNeighbors:
			if int(a.Target) >= cur {
				t.Fatalf("action %d: neighbors targets user %d, only %d live", i, a.Target, cur)
			}
		case ActCheckpoint:
			last = cur
		case ActBackpressure:
			if len(a.Burst) != cfg.QueueDepth+2 {
				t.Fatalf("action %d: burst of %d, want %d", i, len(a.Burst), cfg.QueueDepth+2)
			}
			cur += len(a.Burst)
		case ActKillRestart:
			cur = last
		case ActReadonlyFlip:
			last = cur
		}
	}
	stats := streamStats(actions)
	if stats[ActKillRestart] == 0 {
		t.Fatal("no KillRestart in the stream")
	}
	if stats[ActBackpressure] == 0 {
		t.Fatal("no Backpressure in the stream")
	}
	if stats[ActCheckpoint] == 0 {
		t.Fatal("no Checkpoint in the stream")
	}

	// Sharded config: readonly flips excluded, crashes still present.
	cfg.ReadonlyFlip = false
	for i, a := range GenStream(cfg) {
		if a.Kind == ActReadonlyFlip {
			t.Fatalf("action %d: ReadonlyFlip emitted with ReadonlyFlip=false", i)
		}
	}

	// Non-hardened configs must never emit admission probes — the
	// pre-hardening streams are unchanged byte for byte.
	for i, a := range actions {
		if a.Kind == ActAuthFail || a.Kind == ActRateLimitBurst {
			t.Fatalf("action %d: %v emitted with Hardened=false", i, a.Kind)
		}
	}

	// Hardened config: both probe kinds are forced in (at N/4 and N/2)
	// and every probe is well-formed.
	hcfg := cfg
	hcfg.Hardened = true
	hardened := GenStream(hcfg)
	hstats := streamStats(hardened)
	if hstats[ActAuthFail] == 0 || hstats[ActRateLimitBurst] == 0 {
		t.Fatalf("hardened stream lacks probes: %d AuthFail, %d RateLimitBurst",
			hstats[ActAuthFail], hstats[ActRateLimitBurst])
	}
	for i, a := range hardened {
		switch a.Kind {
		case ActAuthFail:
			if a.Variant != 0 && a.Variant != 1 {
				t.Fatalf("hardened action %d: AuthFail variant %d", i, a.Variant)
			}
			if len(a.Profile) == 0 {
				t.Fatalf("hardened action %d: AuthFail without a payload", i)
			}
		case ActRateLimitBurst:
			if len(a.Query) == 0 || a.K <= 0 {
				t.Fatalf("hardened action %d: malformed burst query %+v", i, a)
			}
		}
	}

	// Zero-loss config: the population simulation never rolls back on a
	// KillRestart, and targets stay valid against that stricter count.
	cfg.ZeroLoss = true
	cur = cfg.InitialUsers
	for i, a := range GenStream(cfg) {
		switch a.Kind {
		case ActAddUser:
			cur++
		case ActBackpressure:
			cur += len(a.Burst)
		case ActAddRating:
			if int(a.User) >= cur {
				t.Fatalf("zero-loss action %d: rating targets user %d, only %d live", i, a.User, cur)
			}
		case ActNeighbors:
			if int(a.Target) >= cur {
				t.Fatalf("zero-loss action %d: neighbors targets user %d, only %d live", i, a.Target, cur)
			}
		}
	}
}
