// Package rcs implements KIFF's counting phase: the construction of the
// per-user Ranked Candidate Sets (paper §II-B, Algorithm 1 lines 3–4).
//
// For every user u, RCSu collects the users that share at least one item
// with u, ordered by decreasing number of shared items. The sets are built
// by navigating the item-profile inverted index — "item profiles also
// provide a crude hashing procedure, in which users are binned into as many
// item profiles as the items they possess" — rather than by comparing user
// pairs, which would cost O(|U|²).
//
// Two paper optimizations are implemented (§II-D):
//
//   - the pivot strategy: RCSu only stores candidates v > u, halving memory
//     and guaranteeing each pair is considered exactly once;
//   - count stripping: once sorted, the multiplicity information is dropped
//     (unless BuildOptions.KeepCounts asks for it, which the Fig 7
//     correlation study needs).
//
// The §VII "future work" heuristic is available through MinRating: when
// positive, only items rated at least MinRating by both endpoints
// contribute candidates, shrinking the RCSs.
package rcs

import (
	"math/rand"
	"slices"
	"time"

	"kiff/internal/arena"
	"kiff/internal/dataset"
	"kiff/internal/parallel"
	"kiff/internal/stats"
)

// BuildOptions tunes the counting phase.
type BuildOptions struct {
	// Workers bounds the construction parallelism (< 1 = all CPUs).
	Workers int
	// KeepCounts retains the shared-item counts next to the sorted
	// candidate lists (needed by the Fig 7 rank-correlation experiment).
	KeepCounts bool
	// MinRating, when > 0, restricts candidate generation to items both
	// users rated at least MinRating (paper §VII heuristic). Binary
	// profiles are unaffected (every rating is 1).
	MinRating float64
	// Shuffle randomizes the candidate order instead of sorting by count
	// (ablation: isolates the value of the count-based ranking).
	Shuffle bool
	// Seed drives Shuffle.
	Seed int64
	// NoPivot disables the §II-D pivot rule so every RCSu contains all
	// overlapping users, not just those with higher IDs. The refinement
	// phase requires pivoted sets; NoPivot exists for analyses that look at
	// complete per-user candidate rankings (Table VII, Fig 7) and for the
	// pivot ablation.
	NoPivot bool
}

// Sets holds one ranked candidate list per user plus the iteration cursors
// used by the refinement phase's top-pop operation. Only a batch build
// (kiff.Build and the experiments) keeps candidate lists; the serving
// graph is built and maintained by the counting walk (core.Walker),
// which scores each candidate as it finds it and keeps no list.
//
// The lists are views into per-worker-block arenas (internal/arena): one
// contiguous backing array per block instead of one heap allocation per
// user, so iterating the sets in user order walks memory almost
// sequentially.
type Sets struct {
	lists   [][]uint32
	counts  [][]int32 // nil unless KeepCounts
	cursors []int
	// BuildStats describes the construction run.
	BuildStats BuildStats
}

// BuildStats reports the cost and shape of the counting phase, feeding
// Tables V and IX.
type BuildStats struct {
	// Duration is the wall time of RCS construction proper (item profiles
	// are built at dataset load time and timed separately; Table IV).
	Duration time.Duration
	// TotalCandidates is Σu |RCSu| — the hard upper bound on similarity
	// evaluations in the refinement phase (§III-D).
	TotalCandidates int
	// AvgLen is the mean |RCSu| (Table V).
	AvgLen float64
	// MaxLen is the largest |RCSu|.
	MaxLen int
}

// CompareRanked is the candidate ordering every counting-phase consumer
// shares: shared-item count descending, ties broken by ascending user
// ID. The tie-break is load-bearing — it makes candidate ranking (and
// through it the whole deterministic pipeline) independent of worker
// count and map iteration order.
//
// The batch counting phase sorts packed (RankKey) integers instead of
// calling this comparator — same order, no per-comparison indirection;
// TestRankKeyMatchesCompareRanked pins the equivalence.
func CompareRanked(ca, cb int32, a, b uint32) int {
	switch {
	case ca > cb:
		return -1
	case ca < cb:
		return 1
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// RankKey packs a candidate and its shared-item count into one uint64
// whose ascending natural order equals CompareRanked: the complemented
// count in the high bits (larger counts sort first), the user ID in the
// low bits (ascending tie-break). Sorting []uint64 with slices.Sort is
// several times faster than SortFunc with the comparator closure — and
// the ranking sort dominates the counting phase.
func RankKey(count int32, v uint32) uint64 {
	return uint64(^uint32(count))<<32 | uint64(v)
}

// RankKeyUser extracts the user ID from a packed key.
func RankKeyUser(k uint64) uint32 { return uint32(k) }

// RankKeyCount extracts the shared-item count from a packed key.
func RankKeyCount(k uint64) int32 { return int32(^uint32(k >> 32)) }

// SelectRanked reorders keys so that keys[:n] hold the n best-ranked
// (smallest) keys, in no particular order: the budget cut of a ranked
// candidate list without sorting it. It is a quickselect over the packed
// keys, expected O(len(keys)); keys of distinct candidates are distinct,
// so the selected set is unique. n ≥ len(keys) leaves keys as they are.
func SelectRanked(keys []uint64, n int) {
	lo, hi := 0, len(keys)-1
	for lo < hi && n <= hi {
		// Median of three to keys[hi], then a Lomuto partition around it.
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < keys[lo] {
			keys[mid], keys[lo] = keys[lo], keys[mid]
		}
		if keys[hi] < keys[lo] {
			keys[hi], keys[lo] = keys[lo], keys[hi]
		}
		if keys[mid] < keys[hi] {
			keys[mid], keys[hi] = keys[hi], keys[mid]
		}
		pivot, p := keys[hi], lo
		for i := lo; i < hi; i++ {
			if keys[i] < pivot {
				keys[i], keys[p] = keys[p], keys[i]
				p++
			}
		}
		keys[p], keys[hi] = keys[hi], keys[p]
		switch {
		case p == n:
			return
		case p < n:
			lo = p + 1
		default:
			hi = p - 1
		}
	}
}

// Build runs the counting phase.
func Build(d *dataset.Dataset, opts BuildOptions) *Sets {
	start := time.Now()
	d.EnsureItemProfiles()
	n := d.NumUsers()
	minRating := opts.MinRating
	if d.Binary() {
		// Every rating is 1 on binary datasets; the §VII heuristic only
		// applies to "multiple-ratings" datasets.
		minRating = 0
	}

	s := &Sets{
		lists:   make([][]uint32, n),
		cursors: make([]int, n),
	}
	if opts.KeepCounts {
		s.counts = make([][]int32, n)
	}

	parallel.Blocks(n, opts.Workers, func(_, lo, hi int) {
		// Per-worker scratch: a dense count array plus the list of touched
		// candidates, reset between users in O(|touched|), and a reusable
		// ordering buffer. Rows are ranked in the scratch buffer and then
		// appended to the block arena — no per-user allocation.
		countOf := make([]int32, n)
		touched := make([]uint32, 0, 256)
		order := make([]uint32, 0, 256)
		keys := make([]uint64, 0, 256)
		var cscratch []int32
		ab := arena.NewBuilder[uint32](hi-lo, 0)
		var cb *arena.Builder[int32]
		if opts.KeepCounts {
			cb = arena.NewBuilder[int32](hi-lo, 0)
		}
		var rng *rand.Rand
		if opts.Shuffle {
			rng = rand.New(rand.NewSource(opts.Seed + int64(lo)))
		}
		for u := lo; u < hi; u++ {
			touched = touched[:0]
			profile := d.Users[u]
			for idx, it := range profile.IDs {
				if minRating > 0 && profile.Weight(idx) < minRating {
					continue
				}
				for _, r := range d.Raters(it) {
					if minRating > 0 && r.Rating() < minRating {
						continue
					}
					v := r.User
					// Pivot rule: only candidates with higher IDs (§II-D),
					// unless NoPivot asks for the complete sets.
					if opts.NoPivot {
						if int(v) == u {
							continue
						}
					} else if int(v) <= u {
						continue
					}
					if countOf[v] == 0 {
						touched = append(touched, v)
					}
					countOf[v]++
				}
			}
			if opts.Shuffle {
				order = append(order[:0], touched...)
				rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			} else {
				keys = keys[:0]
				for _, v := range touched {
					keys = append(keys, RankKey(countOf[v], v))
				}
				slices.Sort(keys)
				order = order[:0]
				for _, k := range keys {
					order = append(order, RankKeyUser(k))
				}
			}
			ab.AppendRow(order)
			if opts.KeepCounts {
				cscratch = cscratch[:0]
				for _, v := range order {
					cscratch = append(cscratch, countOf[v])
				}
				cb.AppendRow(cscratch)
			}
			for _, v := range touched {
				countOf[v] = 0
			}
		}
		rows := ab.Rows()
		for i := 0; i < rows.NumRows(); i++ {
			s.lists[lo+i] = rows.Row(i)
		}
		if cb != nil {
			crows := cb.Rows()
			for i := 0; i < crows.NumRows(); i++ {
				s.counts[lo+i] = crows.Row(i)
			}
		}
	})

	total := 0
	maxLen := 0
	for _, l := range s.lists {
		total += len(l)
		if len(l) > maxLen {
			maxLen = len(l)
		}
	}
	s.BuildStats = BuildStats{
		Duration:        time.Since(start),
		TotalCandidates: total,
		MaxLen:          maxLen,
	}
	if n > 0 {
		s.BuildStats.AvgLen = float64(total) / float64(n)
	}
	return s
}

// NumUsers returns the number of candidate sets.
func (s *Sets) NumUsers() int { return len(s.lists) }

// Len returns |RCSu| (independent of cursor position).
func (s *Sets) Len(u uint32) int { return len(s.lists[u]) }

// Remaining returns how many candidates of u have not been popped yet.
func (s *Sets) Remaining(u uint32) int { return len(s.lists[u]) - s.cursors[u] }

// TopPop removes and returns the next gamma candidates of user u in
// decreasing shared-item-count order (Algorithm 1 line 9). gamma < 0 means
// "all remaining" (the γ=∞ mode of §III-D). The returned slice aliases
// internal storage and is only valid until the next call for the same user.
func (s *Sets) TopPop(u uint32, gamma int) []uint32 {
	cur := s.cursors[u]
	rest := len(s.lists[u]) - cur
	if rest == 0 {
		return nil
	}
	take := rest
	if gamma >= 0 && gamma < rest {
		take = gamma
	}
	s.cursors[u] = cur + take
	return s.lists[u][cur : cur+take]
}

// Counts returns the shared-item counts aligned with List(u). It returns
// nil unless the sets were built with KeepCounts.
func (s *Sets) Counts(u uint32) []int32 {
	if s.counts == nil {
		return nil
	}
	return s.counts[u]
}

// List returns u's full ranked candidate list (ignores cursors; do not
// mutate).
func (s *Sets) List(u uint32) []uint32 { return s.lists[u] }

// Reset rewinds every cursor so the sets can be iterated again.
func (s *Sets) Reset() {
	for i := range s.cursors {
		s.cursors[i] = 0
	}
}

// Lens returns every |RCSu| (Fig 6 CCDF input).
func (s *Sets) Lens() []int {
	lens := make([]int, len(s.lists))
	for i, l := range s.lists {
		lens[i] = len(l)
	}
	return lens
}

// MaxScanRate returns the scan rate an exhaustive iteration of the sets
// would incur: |U|·avg|RCS| / (|U|(|U|−1)/2) = 2·avg|RCS|/(|U|−1)
// (paper §V-A2).
func (s *Sets) MaxScanRate() float64 {
	n := len(s.lists)
	if n < 2 {
		return 0
	}
	return 2 * s.BuildStats.AvgLen / float64(n-1)
}

// TruncationStats reports, for a per-user candidate budget cut (= #iters
// × γ), the fraction of users whose RCS exceeds the budget — Table VI.
func (s *Sets) TruncationStats(cut int) float64 {
	return stats.FractionAtLeast(s.Lens(), cut+1)
}
