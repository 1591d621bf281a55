package dataset

// Copy-on-write view publication. A View is the frozen dataset half of a
// kiff.Snapshot: the writer keeps mutating the live Dataset while any
// number of readers serve from Views published earlier. Row storage was
// always safe to share (mutations replace whole rows or append past
// published lengths — see the Dataset doc); what would cost O(|U|+|I|)
// per publication is copying the header arrays and the norm cache. Views
// therefore keep the row headers and the norms in internal/arena's paged
// tables, and the Dataset remembers the last View it produced plus the
// rows dirtied since: the next View() copies the previous page tables
// and replaces only the pages holding a dirty or appended row
// (arena.PatchPages), sharing every other page with its predecessor —
// O(dirty pages · 64) copies plus an O((|U|+|I|)/64) table copy.

import (
	"errors"
	"maps"

	"kiff/internal/arena"
	"kiff/internal/sparse"
)

// View is an immutable, page-shared snapshot of a Dataset: the user and
// item row headers, the user norms and the weighted bit frozen at one
// publication point, with row storage shared with the live dataset (safe
// under its copy-on-write mutation discipline). Obtain one from
// Dataset.View; treat it as strictly read-only. All methods are safe for
// any number of concurrent readers.
type View struct {
	name     string
	numUsers int
	numItems int
	weighted bool
	users    [][]sparse.Vector
	norms    [][]float64
	items    [][][]Rater
}

// Name returns the dataset name the view was published from.
func (v *View) Name() string { return v.name }

// NumUsers returns |U| at the publication point.
func (v *View) NumUsers() int { return v.numUsers }

// NumItems returns |I| at the publication point.
func (v *View) NumItems() int { return v.numItems }

// User returns user u's frozen profile (do not mutate).
func (v *View) User(u uint32) sparse.Vector {
	return v.users[u>>arena.PageShift][u&(arena.PageRows-1)]
}

// Raters returns item i's frozen inverted-index row: its raters in
// ascending user order, with their ratings (do not mutate).
func (v *View) Raters(i uint32) []Rater {
	return v.items[i>>arena.PageShift][i&(arena.PageRows-1)]
}

// Norm returns user u's frozen profile norm ‖UPu‖.
func (v *View) Norm(u uint32) float64 {
	return v.norms[u>>arena.PageShift][u&(arena.PageRows-1)]
}

// Weighted reports whether some rating was ≠ 1 at the publication point
// (sticky, as Dataset.Weighted).
func (v *View) Weighted() bool { return v.weighted }

// NumRatings returns |E| at the publication point.
func (v *View) NumRatings() int {
	n := 0
	for _, pg := range v.users {
		for _, u := range pg {
			n += u.Len()
		}
	}
	return n
}

// Validate checks the frozen structural invariants — the same checks
// Dataset.Validate runs, over the paged tables.
func (v *View) Validate() error {
	if v.numItems < 0 {
		return errors.New("dataset: negative item count")
	}
	for p, pg := range v.users {
		if err := validateProfiles(p<<arena.PageShift, pg, v.numItems); err != nil {
			return err
		}
	}
	return validateIndex(v)
}

// viewCache is the Dataset's publication memory: the last View handed
// out, the rows dirtied since, and the page accounting of the most
// recent View() call.
type viewCache struct {
	last       *View
	dirtyUsers map[uint32]struct{}
	dirtyItems map[uint32]struct{}
	copied     int
	shared     int
}

// markUser records that user u's row header changed (row replaced or
// appended) since the last published view.
func (d *Dataset) markUser(u uint32) {
	if d.vc.last == nil {
		return // nothing to patch against; the next view is a full build
	}
	if d.vc.dirtyUsers == nil {
		d.vc.dirtyUsers = make(map[uint32]struct{})
	}
	d.vc.dirtyUsers[u] = struct{}{}
}

// markItem records that item i's inverted-index row header changed.
func (d *Dataset) markItem(i uint32) {
	if d.vc.last == nil {
		return
	}
	if d.vc.dirtyItems == nil {
		d.vc.dirtyItems = make(map[uint32]struct{})
	}
	d.vc.dirtyItems[i] = struct{}{}
}

// invalidateView drops the publication memory: the next View() is a full
// header copy. Called by whole-dataset rewrites (Compact, building the
// item index).
func (d *Dataset) invalidateView() {
	d.vc = viewCache{}
}

// LastViewStats reports the page accounting of the most recent View()
// call: how many header pages it copied versus shared with its
// predecessor. Writer-side observability (read it right after View).
func (d *Dataset) LastViewStats() (copied, shared int) {
	return d.vc.copied, d.vc.shared
}

// View returns a frozen snapshot of the dataset (see View's doc). The
// item-profile index is built first if missing, so views are always
// query-ready. Publication is copy-on-write: pages without a dirty row
// are shared with the previously returned View and only the others are
// replaced, so after the first call the cost is O(dirty pages) plus the
// page-table copy, not O(|U| + |I|). View is writer-side (it must not
// race mutations), like every mutator.
func (d *Dataset) View() *View {
	d.EnsureItemProfiles()
	last := d.vc.last
	if last == nil {
		last = &View{} // nothing to share: every row is appended
	}
	v := &View{name: d.Name, numUsers: len(d.Users), numItems: d.numItems, weighted: d.weighted}
	var cu, cn, ci int
	v.users, cu = arena.PatchPages(last.users, len(d.Users), maps.Keys(d.vc.dirtyUsers),
		func(u int, _ sparse.Vector) sparse.Vector { return d.Users[u] })
	v.norms, cn = arena.PatchPages(last.norms, len(d.norms), maps.Keys(d.vc.dirtyUsers),
		func(u int, _ float64) float64 { return d.norms[u] })
	v.items, ci = arena.PatchPages(last.items, len(d.items), maps.Keys(d.vc.dirtyItems),
		func(i int, _ []Rater) []Rater { return d.items[i] })
	copied := cu + cn + ci
	d.vc = viewCache{last: v, copied: copied, shared: len(v.users) + len(v.norms) + len(v.items) - copied}
	return v
}
