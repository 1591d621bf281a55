package dataset

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"math"
	"slices"
	"strconv"
	"unicode/utf8"

	"kiff/internal/sparse"
)

// LoadOptions controls edge-list parsing.
type LoadOptions struct {
	// Name labels the resulting dataset.
	Name string
	// BuildItemProfiles builds the item-profile inverted index during the
	// same pass that builds user profiles, as KIFF does (Algorithm 1 lines
	// 1–2, "executed at loading time"). When false only user profiles are
	// built; the Table IV experiment contrasts the two.
	BuildItemProfiles bool
	// Binary discards ratings, producing unweighted profiles.
	Binary bool
}

// Load parses a whitespace-separated edge list: one "user item [rating]"
// triple per line, '#' comments and blank lines ignored. User and item
// identifiers are arbitrary tokens, compared as strings and densely
// renumbered in order of first appearance; a missing rating defaults to 1.
//
// Duplicate (user, item) pairs accumulate their ratings in file order,
// matching how the Gowalla check-in counts and DBLP co-publication counts
// are formed.
//
// Each line is split in place. The edges land in flat arrays; two stable
// counting sorts, by item and then by user, order them so that every
// profile is written once, deduplicated and ascending, straight into the
// shared arenas (the layout Compact makes).
func Load(r io.Reader, opts LoadOptions) (*Dataset, error) {
	var (
		userIDs, itemIDs tokenIDs
		users, items     []uint32
		ratings          []float64 // nil until the first rating is read
		f                [3][]byte
	)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	for lineNo := 1; sc.Scan(); lineNo++ {
		line := sc.Bytes()
		n, ok := fieldsASCII(line, &f)
		if !ok {
			n = fieldsUnicode(line, &f)
		}
		if n == 0 || f[0][0] == '#' {
			continue
		}
		if n < 2 {
			return nil, fmt.Errorf("dataset: line %d: want 'user item [rating]', got %q", lineNo, bytes.TrimSpace(line))
		}
		rating := 1.0
		if n >= 3 && !opts.Binary {
			v, err := parseRating(f[2])
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: bad rating %q: %v", lineNo, f[2], err)
			}
			rating = v
			if ratings == nil {
				// Every earlier edge had the default rating.
				ratings = make([]float64, len(users), cap(users))
				for i := range ratings {
					ratings[i] = 1
				}
			}
		}
		if len(users) == cap(users) {
			// Double the three columns together; append alone would grow
			// large slices by a quarter at a time.
			more := max(len(users), 1024)
			users, items = slices.Grow(users, more), slices.Grow(items, more)
			if ratings != nil {
				ratings = slices.Grow(ratings, more)
			}
		}
		users = append(users, userIDs.id(f[0]))
		items = append(items, itemIDs.id(f[1]))
		if ratings != nil {
			ratings = append(ratings, rating)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: read: %w", err)
	}
	if len(users) > math.MaxUint32 {
		return nil, errors.New("dataset: more than 2^32 edges")
	}

	// A file with no rating column anywhere (or a Binary load) leaves
	// ratings nil: a binary dataset. Keeping implicit all-ones weight
	// slices would only waste memory and make the round trip through
	// Write/Load lose binariness.
	d := &Dataset{
		Name:     opts.Name,
		Users:    groupProfiles(users, items, ratings, int(userIDs.n), int(itemIDs.n)),
		numItems: int(itemIDs.n),
	}
	if opts.BuildItemProfiles {
		// The inverted index is built from the deduplicated profiles into
		// one CSR arena (Algorithm 1 lines 1–2, still at loading time).
		d.EnsureItemProfiles()
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// groupProfiles turns the edge columns (in file order) into user
// profiles. A stable counting sort by item, then one by user, leaves each
// user's edges in ascending item order with the repeats of a pair
// adjacent in file order; repeats are summed in that order, each sum
// starting at +0. The rows are written into one IDs arena and, unless
// ratings is nil (binary), one weights arena, as capacity-clamped views.
func groupProfiles(users, items []uint32, ratings []float64, numUsers, numItems int) []sparse.Vector {
	// By item: byItem lists the edges item by item, in file order within
	// an item. Placing through next[it] shifts it to the item's end, so
	// afterwards item it spans byItem[next[it-1]:next[it]].
	next := make([]int, numItems+1)
	for _, it := range items {
		next[it+1]++
	}
	for i := 1; i <= numItems; i++ {
		next[i] += next[i-1]
	}
	byItem := make([]uint32, len(items))
	for e, it := range items {
		byItem[next[it]] = uint32(e)
		next[it]++
	}

	// By user, over the item order: first count each user's distinct
	// items (mark[u] is 1 + the item of u's latest edge), then place.
	mark := make([]uint32, numUsers)
	end := make([]int, numUsers+1)
	lo := 0
	for it, hi := range next[:numItems] {
		for _, e := range byItem[lo:hi] {
			if u := users[e]; mark[u] != uint32(it)+1 {
				mark[u] = uint32(it) + 1
				end[u+1]++
			}
		}
		lo = hi
	}
	for u := 1; u <= numUsers; u++ {
		end[u] += end[u-1]
	}
	ids := make([]uint32, end[numUsers])
	var ws []float64
	if ratings != nil {
		ws = make([]float64, len(ids))
	}
	// Placing through end[u] shifts it to the row's end, as above.
	clear(mark)
	lo = 0
	for it, hi := range next[:numItems] {
		for _, e := range byItem[lo:hi] {
			u := users[e]
			if mark[u] == uint32(it)+1 {
				if ws != nil {
					ws[end[u]-1] += ratings[e]
				}
				continue
			}
			mark[u] = uint32(it) + 1
			ids[end[u]] = uint32(it)
			if ws != nil {
				ws[end[u]] = 0 + ratings[e]
			}
			end[u]++
		}
		lo = hi
	}

	out := make([]sparse.Vector, numUsers)
	lo = 0
	for u, hi := range end[:numUsers] {
		out[u].IDs = ids[lo:hi:hi]
		if ws != nil {
			out[u].Weights = ws[lo:hi:hi]
		}
		lo = hi
	}
	return out
}

// asciiSpace marks the six ASCII bytes strings.Fields splits ASCII text
// on.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// fieldsASCII splits an ASCII line the way strings.Fields does, keeping
// the first len(f) fields in f, and returns the number of fields. It
// reports false, with f unspecified, if the line holds a byte ≥ 0x80.
func fieldsASCII(line []byte, f *[3][]byte) (int, bool) {
	n, start := 0, -1
	for i, c := range line {
		switch {
		case c >= utf8.RuneSelf:
			return 0, false
		case !asciiSpace[c]:
			if start < 0 {
				start = i
			}
		case start >= 0:
			if n < len(f) {
				f[n] = line[start:i]
			}
			n, start = n+1, -1
		}
	}
	if start >= 0 {
		if n < len(f) {
			f[n] = line[start:]
		}
		n++
	}
	return n, true
}

// fieldsUnicode is fieldsASCII for any line: it splits on Unicode white
// space, as strings.Fields does.
func fieldsUnicode(line []byte, f *[3][]byte) int {
	fs := bytes.Fields(line)
	copy(f[:], fs)
	return len(fs)
}

// digits returns the value of tok if it is 1 to maxLen ASCII digits.
func digits(tok []byte, maxLen int) (uint64, bool) {
	if len(tok) == 0 || len(tok) > maxLen {
		return 0, false
	}
	var v uint64
	for _, c := range tok {
		if c < '0' || c > '9' {
			return 0, false
		}
		v = v*10 + uint64(c-'0')
	}
	return v, true
}

// parseRating converts a rating token. Up to 15 digits are converted by
// hand: the integer is below 2^53, so it is exact, as ParseFloat's is.
func parseRating(tok []byte) (float64, error) {
	if v, ok := digits(tok, 15); ok {
		return float64(v), nil
	}
	return strconv.ParseFloat(string(tok), 64)
}

// Dense-table bound of tokenIDs: the table covers values below
// denseSlack × (IDs numbered so far) + denseFloor, so its length stays
// O(IDs).
const (
	denseSlack = 8
	denseFloor = 1024
)

// tokenIDs numbers the tokens of one column (users or items) in order of
// first appearance. Tokens keep their string identity, so "7", "07" and
// "+7" are three IDs. A canonical decimal token (no sign, no leading
// zero, below 2^32: the form Write emits) is looked up by value, in a
// dense table while the value is small enough and in a map beyond that;
// every other token is looked up by its bytes. One counter numbers all
// of them.
type tokenIDs struct {
	dense []uint32          // value → ID+1, 0 if not in the table
	large map[uint32]uint32 // canonical values the table did not cover
	named map[string]uint32 // every other token
	n     uint32
}

// id returns tok's ID, numbering it if it is new.
func (t *tokenIDs) id(tok []byte) uint32 {
	v, ok := digits(tok, 10)
	if !ok || v > math.MaxUint32 || tok[0] == '0' && len(tok) > 1 {
		id, seen := t.named[string(tok)]
		if !seen {
			if t.named == nil {
				t.named = make(map[string]uint32)
			}
			id = t.next()
			t.named[string(tok)] = id
		}
		return id
	}
	if v >= uint64(len(t.dense)) && !t.grow(v) {
		id, seen := t.large[uint32(v)]
		if !seen {
			if t.large == nil {
				t.large = make(map[uint32]uint32)
			}
			id = t.next()
			t.large[uint32(v)] = id
		}
		return id
	}
	if id := t.dense[v]; id != 0 {
		return id - 1
	}
	// New to the table, but it may have been numbered while the table
	// was still too short to hold it.
	id, seen := t.large[uint32(v)]
	if !seen {
		id = t.next()
	}
	t.dense[v] = id + 1
	return id
}

// grow extends the dense table to cover v, reporting false if v is past
// its bound.
func (t *tokenIDs) grow(v uint64) bool {
	limit := uint64(t.n)*denseSlack + denseFloor
	if v >= limit {
		return false
	}
	size := min(max(v+1, 2*uint64(len(t.dense))), limit)
	t.dense = append(t.dense, make([]uint32, size-uint64(len(t.dense)))...)
	return true
}

// next numbers a new token.
func (t *tokenIDs) next() uint32 {
	t.n++
	return t.n - 1
}

// Write emits the dataset as a parseable edge list. Binary datasets omit
// the rating column. The output round-trips through Load.
func Write(w io.Writer, d *Dataset) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "# dataset %s: %d users, %d items, %d ratings\n",
		d.Name, d.NumUsers(), d.NumItems(), d.NumRatings())
	for uid, u := range d.Users {
		for i, item := range u.IDs {
			if u.IsBinary() {
				if _, err := fmt.Fprintf(bw, "%d %d\n", uid, item); err != nil {
					return err
				}
			} else {
				if _, err := fmt.Fprintf(bw, "%d %d %g\n", uid, item, u.Weights[i]); err != nil {
					return err
				}
			}
		}
	}
	return bw.Flush()
}
