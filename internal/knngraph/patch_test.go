package knngraph

import (
	"bytes"
	"math/rand"
	"testing"
	"unsafe"

	"kiff/internal/knnheap"
)

// wireBytes serializes g in the KFG1 binary format.
func wireBytes(t testing.TB, g *Graph) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := g.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	return buf.Bytes()
}

// fillSet offers `rounds` random candidates into the heaps.
func fillSet(s *knnheap.Set, rng *rand.Rand, rounds int) {
	n := s.Len()
	if n < 2 {
		return
	}
	for i := 0; i < rounds; i++ {
		u, v := uint32(rng.Intn(n)), uint32(rng.Intn(n))
		if u == v {
			continue
		}
		s.Update(u, v, rng.Float64())
	}
}

// requireSameGraph asserts a patched graph equals the from-scratch export
// both through the accessors and on the wire.
func requireSameGraph(t *testing.T, patched, scratch *Graph) {
	t.Helper()
	if patched.NumUsers() != scratch.NumUsers() || patched.NumEdges() != scratch.NumEdges() {
		t.Fatalf("patched graph is %d users / %d edges, scratch %d / %d",
			patched.NumUsers(), patched.NumEdges(), scratch.NumUsers(), scratch.NumEdges())
	}
	for u := 0; u < scratch.NumUsers(); u++ {
		a, b := patched.Neighbors(uint32(u)), scratch.Neighbors(uint32(u))
		if len(a) != len(b) {
			t.Fatalf("user %d: %d vs %d neighbors", u, len(a), len(b))
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("user %d neighbor %d: %v vs %v", u, i, a[i], b[i])
			}
		}
	}
	if !bytes.Equal(wireBytes(t, patched), wireBytes(t, scratch)) {
		t.Fatal("patched graph serializes differently from the flat export")
	}
}

// TestPatchFromCleanSharesEverything covers the page-boundary sizes: with
// no dirty users, every page is shared and the result still reads and
// serializes identically.
func TestPatchFromCleanSharesEverything(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 128, 130} {
		s := knnheap.NewSet(n, 4)
		fillSet(s, rand.New(rand.NewSource(int64(n))), n*8)
		prev := FromSet(s)
		s.TrackDirty()
		g, st := PatchFrom(prev, s, s.DrainDirty(nil))
		if st.PagesCopied != 0 || st.EntriesCopied != 0 {
			t.Fatalf("n=%d: clean patch copied %d pages / %d entries", n, st.PagesCopied, st.EntriesCopied)
		}
		if want := numPages(n); st.PagesShared != want {
			t.Fatalf("n=%d: shared %d pages, want %d", n, st.PagesShared, want)
		}
		requireSameGraph(t, g, FromSet(s))
	}
}

// TestPatchFromDirtyUsers mutates a handful of users and checks that only
// their pages are replaced, that a replaced page shares its clean rows'
// storage with the previous graph while only the dirty rows are exported
// afresh, and that the patched graph matches a full export.
func TestPatchFromDirtyUsers(t *testing.T) {
	const n, k = 130, 4
	rng := rand.New(rand.NewSource(5))
	s := knnheap.NewSet(n, k)
	fillSet(s, rng, n*10)
	prev := FromSet(s)
	s.TrackDirty()

	// Touch one user on page 0 and one on page 2. Update(u, v) and
	// Remove(u, v) touch exactly u's heap, so pages 0 and 2 become dirty
	// and page 1 (users 64..127) stays clean. Pick a candidate certain to
	// change heap 3 (absent, and sim 2.0 beats every random sim).
	var v uint32 = 1
	for v == 3 || s.Contains(3, v) {
		v++
	}
	s.Update(3, v, 2.0)
	if ids := s.IDs(nil, 129); len(ids) > 0 {
		s.Remove(129, ids[0])
	} else {
		s.Update(129, 5, 2.0)
	}
	dirty := s.DrainDirty(nil)
	g, st := PatchFrom(prev, s, dirty)
	if st.PagesCopied != 2 {
		t.Fatalf("copied %d pages, want 2 (dirty %v)", st.PagesCopied, dirty)
	}
	if st.PagesShared != numPages(n)-2 {
		t.Fatalf("shared %d pages, want %d", st.PagesShared, numPages(n)-2)
	}
	if want := len(g.Neighbors(3)) + len(g.Neighbors(129)); st.EntriesCopied != want {
		t.Fatalf("EntriesCopied = %d, want the dirty rows' %d", st.EntriesCopied, want)
	}
	requireRowSharing(t, g, prev, dirty)
	requireSameGraph(t, g, FromSet(s))

	// A second drain-and-patch with nothing dirty shares all pages of the
	// patched graph (mixed shared/standalone page provenance).
	g2, st2 := PatchFrom(g, s, s.DrainDirty(nil))
	if st2.PagesCopied != 0 || st2.PagesShared != numPages(n) {
		t.Fatalf("second patch: %+v", st2)
	}
	requireSameGraph(t, g2, FromSet(s))

	// One dirty user on the otherwise untouched page 1: its page is
	// replaced, its 63 clean rows still alias the flat first export, and
	// the publication exports exactly one row.
	v = 64
	for v == 70 || s.Contains(70, v) {
		v++
	}
	s.Update(70, v, 3.0)
	dirty = s.DrainDirty(nil)
	g3, st3 := PatchFrom(g2, s, dirty)
	if st3.PagesCopied != 1 || st3.EntriesCopied != len(g3.Neighbors(70)) {
		t.Fatalf("one-row patch: %+v, want 1 page and %d entries", st3, len(g3.Neighbors(70)))
	}
	requireRowSharing(t, g3, prev, dirty)
	requireSameGraph(t, g3, FromSet(s))
}

// requireRowSharing checks the row-level copy-on-write of a patch: on
// every page holding a dirty user, each clean row aliases base's storage
// for that row (same backing array, same length), and each non-empty
// dirty row does not.
func requireRowSharing(t *testing.T, g, base *Graph, dirty []uint32) {
	t.Helper()
	isDirty := make(map[uint32]bool, len(dirty))
	for _, u := range dirty {
		isDirty[u] = true
	}
	for _, d := range dirty {
		lo := d &^ pageMask
		for u := lo; u < min(lo+PageUsers, uint32(g.NumUsers())); u++ {
			got, old := g.Neighbors(u), base.Neighbors(u)
			same := unsafe.SliceData(got) == unsafe.SliceData(old) && len(got) == len(old)
			switch {
			case isDirty[u] && len(got) > 0 && unsafe.SliceData(got) == unsafe.SliceData(old):
				t.Fatalf("dirty user %d still aliases the previous graph's row", u)
			case !isDirty[u] && !same:
				t.Fatalf("clean user %d on replaced page %d does not alias the previous graph's row", u, u>>pageShift)
			}
		}
	}
}

// TestPatchFromGrowth grows the population across a page boundary; the
// old partial tail page and the new pages are rebuilt, full old pages are
// shared.
func TestPatchFromGrowth(t *testing.T) {
	const k = 4
	rng := rand.New(rand.NewSource(9))
	s := knnheap.NewSet(70, k) // pages: [0..63], [64..69] (partial)
	fillSet(s, rng, 700)
	prev := FromSet(s)
	s.TrackDirty()

	s.Grow(10) // 80 users: tail page now [64..79]
	for u := 70; u < 80; u++ {
		s.Update(uint32(u), uint32(u%64), rng.Float64())
	}
	g, st := PatchFrom(prev, s, s.DrainDirty(nil))
	if st.PagesShared != 1 || st.PagesCopied != 1 {
		t.Fatalf("growth patch: %+v, want 1 shared (page 0) + 1 copied (tail)", st)
	}
	requireSameGraph(t, g, FromSet(s))
}

// TestPatchFromPanics pins the misuse guards.
func TestPatchFromPanics(t *testing.T) {
	s := knnheap.NewSet(10, 4)
	prev := FromSet(knnheap.NewSet(10, 5))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("PatchFrom across k did not panic")
			}
		}()
		PatchFrom(prev, s, nil)
	}()
	shrunk := FromSet(knnheap.NewSet(20, 4))
	func() {
		defer func() {
			if recover() == nil {
				t.Error("PatchFrom over a shrunk set did not panic")
			}
		}()
		PatchFrom(shrunk, s, nil)
	}()
}

// FuzzGraphPatchRoundTrip drives a byte-string-derived mutation stream
// through a tracked heap set, repeatedly patching the published graph,
// and pins the COW-patched graph's WriteTo bytes against the flat-CSR
// export of the same heaps — the serialization-identity contract the
// mmap/codec layer depends on.
func FuzzGraphPatchRoundTrip(f *testing.F) {
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8})
	f.Add([]byte{0xff, 0x00, 0x80, 0x40, 0x20, 0x10})
	f.Add(bytes.Repeat([]byte{9, 33, 77}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		const k = 3
		n := 66 // straddles one page boundary; ops below may grow it
		s := knnheap.NewSet(n, k)
		rng := rand.New(rand.NewSource(11))
		fillSet(s, rng, n*6)
		prev := FromSet(s)
		s.TrackDirty()
		for i := 0; i+2 < len(data); i += 3 {
			op, a, b := data[i], data[i+1], data[i+2]
			switch op % 4 {
			case 0:
				u, v := uint32(a)%uint32(n), uint32(b)%uint32(n)
				if u != v {
					s.Update(u, v, float64(op)/255)
				}
			case 1:
				u := uint32(a) % uint32(n)
				ids := s.IDs(nil, u)
				if len(ids) > 0 {
					s.Remove(u, ids[int(b)%len(ids)])
				}
			case 2:
				s.Clear(uint32(a) % uint32(n))
			case 3:
				if n < 200 {
					s.Grow(1 + int(a)%3)
					n = s.Len()
				}
			}
			if op%8 == 0 { // publish every so often, patching the previous
				next, _ := PatchFrom(prev, s, s.DrainDirty(nil))
				prev = next
			}
		}
		final, _ := PatchFrom(prev, s, s.DrainDirty(nil))
		scratch := FromSet(s)
		if !bytes.Equal(wireBytes(t, final), wireBytes(t, scratch)) {
			t.Fatal("patched graph bytes diverge from flat export")
		}
	})
}
