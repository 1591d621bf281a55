package arena

// Paged row tables: the copy-on-write layout of everything a snapshot
// publishes. Row i of a table lives at pages[i>>PageShift][i&(PageRows-1)];
// each page is an immutable array of up to PageRows row values (slice
// headers, for the KNN graph's neighbor lists and the dataset view's
// profile and item rows), and every page but the last is full.
// Successive snapshots share pages, and clean rows within replaced pages,
// so publishing one costs the rows that changed plus a copy of the page
// table — not the rows that did not.

import "iter"

const (
	// PageShift sets the page granularity: 1<<PageShift rows per page.
	// The trade: larger pages shorten the table that every publication
	// copies (one 24-byte entry per page), but make one dirty row copy
	// more of its neighbors' row headers. At 64 a replaced page is 1.5 KB
	// of headers, and the table of a million-row snapshot is ~16k
	// entries, a few hundred KB.
	PageShift = 6
	// PageRows is the number of rows per page.
	PageRows = 1 << PageShift
)

// NumPages returns the number of pages covering n rows.
func NumPages(n int) int { return (n + PageRows - 1) >> PageShift }

// PatchPages returns the page table of an n-row table that equals prev
// except at the dirty rows and at the rows appended since prev (from
// prev's row count up to n, which must not be smaller); row supplies the
// value of each such row given the value it replaces (the zero value for
// an appended row). The new table starts as a copy of prev's, and a page
// holding a supplied row is replaced by a copy of its previous contents
// with the row patched in, so clean pages — and the clean rows of
// replaced pages — are shared with prev, which is never written. Cost:
// O(n/PageRows) for the table plus O(PageRows) per replaced page and one
// row call per supplied row. Dirty rows at or beyond prev's row count
// are covered by the appended range (or past n) and skipped; a row
// listed twice is supplied twice. replaced counts the pages that are not
// prev's.
func PatchPages[T any](prev [][]T, n int, dirty iter.Seq[uint32], row func(i int, old T) T) (pages [][]T, replaced int) {
	pages = make([][]T, NumPages(n))
	copy(pages, prev)
	set := func(i int) {
		p, lo := i>>PageShift, i&^(PageRows-1)
		pg := pages[p]
		// Replace a page that lies past prev or still has prev's storage.
		if pg == nil || p < len(prev) && &pg[0] == &prev[p][0] {
			pg = make([]T, min(n-lo, PageRows))
			copy(pg, pages[p])
			pages[p] = pg
			replaced++
		}
		pg[i-lo] = row(i, pg[i-lo])
	}
	prevRows := 0
	if len(prev) > 0 {
		prevRows = (len(prev)-1)<<PageShift + len(prev[len(prev)-1])
	}
	for i := range dirty {
		if int(i) < prevRows {
			set(int(i))
		}
	}
	for i := prevRows; i < n; i++ {
		set(i)
	}
	return pages, replaced
}
