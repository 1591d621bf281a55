package arena

import (
	"slices"
	"testing"
)

// TestPatchPages drives a table through a full build, a patch with
// dirty, repeated, out-of-range and appended rows, and a clean patch,
// checking values, the old values handed to row, page sharing and that
// the previous table is never written.
func TestPatchPages(t *testing.T) {
	version := 1
	row := func(i, _ int) int { return version*1000 + i }
	check := func(pages [][]int, n int, want func(i int) int) {
		t.Helper()
		if len(pages) != NumPages(n) {
			t.Fatalf("%d pages for %d rows", len(pages), n)
		}
		for i := 0; i < n; i++ {
			if got := pages[i>>PageShift][i&(PageRows-1)]; got != want(i) {
				t.Fatalf("row %d = %d, want %d", i, got, want(i))
			}
		}
		if last := pages[len(pages)-1]; n > 0 && len(last) != n-(len(pages)-1)*PageRows {
			t.Fatalf("tail page holds %d rows", len(last))
		}
	}

	v1, replaced := PatchPages[int](nil, 130, slices.Values([]uint32{7}), row)
	if replaced != 3 {
		t.Fatalf("full build replaced %d pages, want 3", replaced)
	}
	check(v1, 130, func(i int) int { return 1000 + i })

	// Dirty rows 3 (twice: the second call sees the first's value), 129
	// (the partial tail page, which also grows) and one past every row;
	// growth to 200 appends rows 130..199 across the tail and a new page,
	// each seeing the zero value as old.
	version = 2
	var olds []int
	v2, replaced := PatchPages(v1, 200, slices.Values([]uint32{3, 129, 3, 500}), func(i, old int) int {
		if i == 3 || i == 129 || i == 130 || i == 199 {
			olds = append(olds, old)
		}
		return row(i, old)
	})
	if replaced != 3 {
		t.Fatalf("patch replaced %d pages, want 3 (pages 0, 2 and 3)", replaced)
	}
	if want := []int{1003, 1129, 2003, 0, 0}; !slices.Equal(olds, want) {
		t.Fatalf("old values %v, want %v", olds, want)
	}
	check(v2, 200, func(i int) int {
		if i == 3 || i >= 129 {
			return 2000 + i
		}
		return 1000 + i
	})
	check(v1, 130, func(i int) int { return 1000 + i })
	if &v2[1][0] != &v1[1][0] {
		t.Fatal("clean page 1 was not shared")
	}

	v3, replaced := PatchPages(v2, 200, slices.Values([]uint32(nil)), row)
	if replaced != 0 {
		t.Fatalf("clean patch replaced %d pages", replaced)
	}
	for p := range v3 {
		if &v3[p][0] != &v2[p][0] {
			t.Fatalf("clean patch did not share page %d", p)
		}
	}
}
