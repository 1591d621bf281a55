// Package dataset implements the labeled bipartite graph substrate of the
// paper (§III-A): a set of users U, a set of items I, and a rating function
// ρ : U × I → R materialized as per-user profiles (UPu) plus an inverted
// index of per-item profiles (IPi).
//
// Because the module must run offline, the package also provides
// deterministic synthetic generators calibrated to the published statistics
// of the paper's four SNAP datasets (Table I, Fig 4) and of the MovieLens
// density family (Table IX); see synth.go, coauthor.go and movielens.go.
package dataset

import (
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"kiff/internal/arena"
	"kiff/internal/sparse"
)

// Dataset is an in-memory user–item bipartite graph. Users and items are
// densely numbered from 0; external identifier mappings are handled by the
// loader (load.go).
//
// Storage follows the module's arena discipline: loaders and generators
// compact user profiles onto shared flat backing arrays (Compact), and
// the item-profile inverted index is built as one CSR arena. Mutations
// (AddUser, AddRating) are single-writer and copy-on-write at row
// granularity — they never modify elements of row storage that an
// existing header can see, only replace whole rows or append past every
// published length — which is what lets View publish consistent frozen
// snapshots to concurrent readers while the writer keeps mutating.
type Dataset struct {
	// Name identifies the dataset in tables and reports.
	Name string
	// Users holds one sparse profile per user: the items the user rated,
	// with the ratings as weights (nil weights = binary, the single-valued
	// rating special case of §III-A).
	Users []sparse.Vector

	// items is the inverted index: items[i] lists the users that rated
	// item i, in ascending order, each with its rating (the item profiles
	// IPi of §II-B). It is nil until EnsureItemProfiles builds it, with
	// norms and weighted; loaders and generators normally do so at
	// construction time, mirroring Algorithm 1 lines 1–2 ("executed at
	// loading time").
	items [][]Rater
	// norms caches ‖UPu‖ per user, maintained with the index.
	norms []float64
	// weighted is sticky: some indexed rating is, or once was, ≠ 1.
	weighted bool

	numItems int

	// vc remembers the last published View and the rows dirtied since, so
	// the next View() can share clean header pages with it (view.go).
	vc viewCache
}

// New creates a dataset from user profiles. numItems must be at least one
// greater than the largest item ID referenced by any profile. The
// profiles are compacted onto shared arenas; the caller's slices are not
// retained.
func New(name string, users []sparse.Vector, numItems int) (*Dataset, error) {
	d := &Dataset{Name: name, Users: users, numItems: numItems}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	d.Compact()
	return d, nil
}

// Compact re-lays every user profile onto shared contiguous arenas (see
// sparse.Compact). Constructors call it once (Load writes the same
// layout directly); long-mutated datasets may call it again to re-pack
// rows that copy-on-write mutations scattered across the heap.
// Single-writer, like every mutator.
func (d *Dataset) Compact() {
	d.Users = sparse.Compact(d.Users)
	// Every row header just moved onto new arenas; pages shared from the
	// previous view no longer describe the live rows.
	d.invalidateView()
}

// NumUsers returns |U|.
func (d *Dataset) NumUsers() int { return len(d.Users) }

// NumItems returns |I|.
func (d *Dataset) NumItems() int { return d.numItems }

// User returns user u's current profile (do not mutate). Together with
// Raters, Norm, Weighted and NumItems it gives the live dataset the same
// read surface as a frozen View, so query evaluation can run over either.
func (d *Dataset) User(u uint32) sparse.Vector { return d.Users[u] }

// Item returns the users that rated item i, in ascending order, as a
// fresh slice. The index must have been built (EnsureItemProfiles), as
// for Raters, the zero-copy form the hot paths read.
func (d *Dataset) Item(i uint32) []uint32 { return raterIDs(d.items[i]) }

// Raters returns item i's inverted-index row: its raters in ascending
// user order, with their ratings (do not mutate). The index must have
// been built (EnsureItemProfiles).
func (d *Dataset) Raters(i uint32) []Rater { return d.items[i] }

// Norm returns ‖UPu‖, the Euclidean norm of user u's profile, cached
// with the index (EnsureItemProfiles) and kept current by the mutators.
func (d *Dataset) Norm(u uint32) float64 { return d.norms[u] }

// Weighted reports whether some indexed rating is, or once was, ≠ 1.
// The bit is sticky: a dataset whose every rating returns to 1 stays
// weighted. The index must have been built (EnsureItemProfiles).
func (d *Dataset) Weighted() bool { return d.weighted }

// Rater is one entry of an item row: a user that rated the item and the
// rating. The rating's float64 bits are split across two uint32 halves,
// so an entry packs into 12 bytes at uint32 alignment.
type Rater struct {
	User   uint32
	lo, hi uint32
}

// newRater returns the row entry of user u with the given rating.
func newRater(u uint32, rating float64) Rater {
	b := math.Float64bits(rating)
	return Rater{User: u, lo: uint32(b), hi: uint32(b >> 32)}
}

// Rating returns the entry's rating (1 for a binary profile's item).
func (r Rater) Rating() float64 {
	return math.Float64frombits(uint64(r.hi)<<32 | uint64(r.lo))
}

// raterIDs copies a row's user IDs.
func raterIDs(row []Rater) []uint32 {
	ids := make([]uint32, len(row))
	for j, r := range row {
		ids[j] = r.User
	}
	return ids
}

// NumRatings returns |E|, the number of user→item edges.
func (d *Dataset) NumRatings() int {
	n := 0
	for _, u := range d.Users {
		n += u.Len()
	}
	return n
}

// Density returns |E| / (|U|·|I|), the fill ratio of the bipartite
// adjacency matrix (Table I).
func (d *Dataset) Density() float64 {
	if len(d.Users) == 0 || d.numItems == 0 {
		return 0
	}
	return float64(d.NumRatings()) / (float64(len(d.Users)) * float64(d.numItems))
}

// Binary reports whether every profile is unweighted.
func (d *Dataset) Binary() bool {
	for _, u := range d.Users {
		if !u.IsBinary() {
			return false
		}
	}
	return true
}

// UserProfileSizes returns |UPu| for every user (Fig 4a input).
func (d *Dataset) UserProfileSizes() []int {
	sizes := make([]int, len(d.Users))
	for i, u := range d.Users {
		sizes[i] = u.Len()
	}
	return sizes
}

// ItemProfileSizes returns |IPi| for every item (Fig 4b input). It builds
// the inverted index if necessary.
func (d *Dataset) ItemProfileSizes() []int {
	d.EnsureItemProfiles()
	sizes := make([]int, len(d.items))
	for i, ip := range d.items {
		sizes[i] = len(ip)
	}
	return sizes
}

// EnsureItemProfiles builds the item-profile inverted index, with the
// per-user norms and the weighted bit, if it has not been built yet. The
// index reverses every user→item edge into an item→(user, rating) entry;
// users appear in ascending order because user IDs are scanned in order.
func (d *Dataset) EnsureItemProfiles() {
	if d.items != nil {
		return
	}
	d.items = buildItemProfiles(d.Users, d.numItems)
	d.norms = make([]float64, len(d.Users))
	for u, p := range d.Users {
		d.norms[u] = sparse.Norm(p)
		d.weighted = d.weighted || hasWeight(p.Weights)
	}
	// Building the index rewrites every item row wholesale.
	d.invalidateView()
}

// hasWeight reports whether some rating in ws is ≠ 1.
func hasWeight(ws []float64) bool {
	for _, w := range ws {
		if w != 1 {
			return true
		}
	}
	return false
}

// buildItemProfiles computes the inverted index for the given profiles
// as capacity-clamped views into one CSR arena (two-pass counted fill).
func buildItemProfiles(users []sparse.Vector, numItems int) [][]Rater {
	counts := make([]int, numItems)
	for _, u := range users {
		for _, it := range u.IDs {
			counts[it]++
		}
	}
	f := arena.NewFiller[Rater](counts)
	for uid, u := range users {
		for idx, it := range u.IDs {
			f.Push(int(it), newRater(uint32(uid), u.Weight(idx)))
		}
	}
	return f.Rows().Views()
}

// AddUser appends profile p as a new user and returns its ID. The item
// space grows automatically if p references items beyond NumItems. The
// item-profile inverted index, if already built, is patched by appending
// — the new user's ID is the largest, so each touched item profile stays
// ascending, and the append lands either in a fresh array or past every
// length a published View can see (row storage visible to views is never
// overwritten) — and the new user's norm is appended to the cache.
//
// Mutations are single-writer: AddUser must not run concurrently with
// other mutations of the same dataset. Readers holding a View are safe.
// The profile is cloned; the caller's slices are not retained.
func (d *Dataset) AddUser(p sparse.Vector) (uint32, error) {
	if err := p.Validate(); err != nil {
		return 0, fmt.Errorf("dataset: add user: %w", err)
	}
	p = p.Clone()
	if p.Len() > 0 {
		if maxID := int(p.IDs[p.Len()-1]); maxID >= d.numItems {
			d.growItems(maxID + 1)
		}
	}
	id := uint32(len(d.Users))
	d.Users = append(d.Users, p)
	d.markUser(id)
	if d.items != nil {
		for idx, it := range p.IDs {
			d.items[it] = append(d.items[it], newRater(id, p.Weight(idx)))
			d.markItem(it)
		}
		d.norms = append(d.norms, sparse.Norm(p))
		d.weighted = d.weighted || hasWeight(p.Weights)
	}
	return id, nil
}

// AddRating sets user u's rating of item to rating, inserting the item
// into the profile if it is absent and replacing it otherwise. The item
// space grows automatically for a new item ID. A binary profile stays
// binary for rating == 1 and is materialized into an explicitly weighted
// one otherwise.
//
// Like AddUser, AddRating is single-writer but safe to interleave with
// readers holding a View: mutated rows (the user's profile, the item's
// inverted-index row, which holds the rating too) are rebuilt in fresh
// arrays and swapped in whole — copy-on-write — so a reader sees either
// the old or the new row, never a half-shifted one. The user's cached
// norm is refreshed.
func (d *Dataset) AddRating(u uint32, item uint32, rating float64) error {
	if int(u) >= len(d.Users) {
		return fmt.Errorf("dataset: add rating: user %d out of range (have %d users)", u, len(d.Users))
	}
	if int(item) >= d.numItems {
		d.growItems(int(item) + 1)
	}
	p := d.Users[u]
	pos := sort.Search(p.Len(), func(i int) bool { return p.IDs[i] >= item })
	present := pos < p.Len() && p.IDs[pos] == item
	weighted := p.Weights != nil || rating != 1
	if present && !weighted {
		return nil // binary profile, rating 1: already recorded
	}
	var np sparse.Vector
	if present {
		np = sparse.Vector{IDs: p.IDs, Weights: make([]float64, p.Len())}
		for i := range np.Weights {
			np.Weights[i] = p.Weight(i)
		}
		np.Weights[pos] = rating
	} else {
		np.IDs = make([]uint32, p.Len()+1)
		copy(np.IDs, p.IDs[:pos])
		np.IDs[pos] = item
		copy(np.IDs[pos+1:], p.IDs[pos:])
		if weighted {
			np.Weights = make([]float64, p.Len()+1)
			for i := 0; i < pos; i++ {
				np.Weights[i] = p.Weight(i)
			}
			np.Weights[pos] = rating
			for i := pos; i < p.Len(); i++ {
				np.Weights[i+1] = p.Weight(i)
			}
		}
	}
	d.Users[u] = np
	d.markUser(u)
	if d.items == nil {
		return nil
	}
	d.norms[u] = sparse.Norm(np)
	d.weighted = d.weighted || rating != 1
	ip := d.items[item]
	j := sort.Search(len(ip), func(j int) bool { return ip[j].User >= u })
	var nip []Rater
	if present {
		nip = slices.Clone(ip)
	} else {
		nip = make([]Rater, len(ip)+1)
		copy(nip, ip[:j])
		copy(nip[j+1:], ip[j:])
	}
	nip[j] = newRater(u, rating)
	d.items[item] = nip
	d.markItem(item)
	return nil
}

// growItems extends the item space to n items, padding the inverted index
// (if built) with empty profiles.
func (d *Dataset) growItems(n int) {
	if n <= d.numItems {
		return
	}
	if d.items != nil {
		for len(d.items) < n {
			d.items = append(d.items, nil)
		}
	}
	d.numItems = n
}

// Stats summarizes a dataset in the shape of the paper's Table I.
type Stats struct {
	Name    string
	Users   int
	Items   int
	Ratings int
	Density float64
	AvgUP   float64
	AvgIP   float64
	Binary  bool
}

// Stats computes the Table I row for the dataset.
func (d *Dataset) Stats() Stats {
	ratings := d.NumRatings()
	s := Stats{
		Name:    d.Name,
		Users:   d.NumUsers(),
		Items:   d.NumItems(),
		Ratings: ratings,
		Density: d.Density(),
		Binary:  d.Binary(),
	}
	if s.Users > 0 {
		s.AvgUP = float64(ratings) / float64(s.Users)
	}
	if s.Items > 0 {
		s.AvgIP = float64(ratings) / float64(s.Items)
	}
	return s
}

// String renders the stats as a single table row.
func (s Stats) String() string {
	return fmt.Sprintf("%-12s |U|=%-8d |I|=%-8d |E|=%-10d density=%.4f%% avg|UP|=%.1f avg|IP|=%.1f",
		s.Name, s.Users, s.Items, s.Ratings, s.Density*100, s.AvgUP, s.AvgIP)
}

// Validate checks structural invariants: profiles well-formed, item IDs in
// range, and (if built) the inverted index, norms and weighted bit
// consistent with the profiles.
func (d *Dataset) Validate() error {
	if d.numItems < 0 {
		return errors.New("dataset: negative item count")
	}
	if err := validateProfiles(0, d.Users, d.numItems); err != nil || d.items == nil {
		return err
	}
	if len(d.items) != d.numItems {
		return fmt.Errorf("dataset: item index has %d entries, want %d", len(d.items), d.numItems)
	}
	if len(d.norms) != len(d.Users) {
		return fmt.Errorf("dataset: %d cached norms, want %d", len(d.norms), len(d.Users))
	}
	return validateIndex(d)
}

// validateProfiles checks that each profile users[j], user first+j, is
// well formed and references only items below numItems.
func validateProfiles(first int, users []sparse.Vector, numItems int) error {
	for j, u := range users {
		if err := u.Validate(); err != nil {
			return fmt.Errorf("dataset: user %d: %w", first+j, err)
		}
		if u.Len() > 0 && int(u.IDs[u.Len()-1]) >= numItems {
			return fmt.Errorf("dataset: user %d references item %d ≥ numItems %d",
				first+j, u.IDs[u.Len()-1], numItems)
		}
	}
	return nil
}

// indexSource is the read surface validateIndex checks, shared by
// Dataset and View.
type indexSource interface {
	NumUsers() int
	NumItems() int
	User(u uint32) sparse.Vector
	Raters(i uint32) []Rater
	Norm(u uint32) float64
	Weighted() bool
}

// validateIndex checks, over validated profiles, that the item rows are
// exactly the profiles inverted — every (user, rating) entry in place,
// ratings and norms compared bit for bit — and that the weighted bit is
// set if some rating is ≠ 1. Users are scanned in ascending order, so
// each item row is matched front to back through one cursor per item.
func validateIndex(r indexSource) error {
	next := make([]int, r.NumItems())
	weighted := false
	for uid := uint32(0); int(uid) < r.NumUsers(); uid++ {
		u := r.User(uid)
		for idx, it := range u.IDs {
			row, j := r.Raters(it), next[it]
			if j >= len(row) || row[j].User != uid ||
				math.Float64bits(row[j].Rating()) != math.Float64bits(u.Weight(idx)) {
				return fmt.Errorf("dataset: item %d row disagrees with user %d's profile", it, uid)
			}
			next[it]++
		}
		if math.Float64bits(r.Norm(uid)) != math.Float64bits(sparse.Norm(u)) {
			return fmt.Errorf("dataset: user %d: cached norm is stale", uid)
		}
		weighted = weighted || hasWeight(u.Weights)
	}
	for i, n := range next {
		if n != len(r.Raters(uint32(i))) {
			return fmt.Errorf("dataset: item %d row holds %d raters, profiles have %d", i, len(r.Raters(uint32(i))), n)
		}
	}
	if weighted && !r.Weighted() {
		return errors.New("dataset: weighted ratings indexed but the weighted bit is clear")
	}
	return nil
}
