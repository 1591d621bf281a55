// Package arena provides the flat storage spine of the module: contiguous
// compressed-sparse-row (CSR) layouts shared by the dataset's item-profile
// index, the ranked candidate sets of the counting phase, and the KNN
// graph itself.
//
// A Rows[T] holds all rows of a ragged 2-D structure in one backing slice
// plus an offsets array, instead of one heap allocation per row. For the
// build hot path this removes ~|U| allocations per phase and keeps rows
// that are scanned together adjacent in memory — the locality/preparation
// trade the paper's counting phase is all about, applied to the runtime
// representation. Rows are immutable once built; row views are handed out
// with a clamped capacity so an append by a careless caller can never
// bleed into the next row.
//
// Rows are produced either by a Builder (streaming, row at a time, for
// producers that discover row contents on the fly) or by a Filler
// (two-pass counted fill, for producers that know every row length up
// front, like the item-profile inversion).
//
// Published snapshots hold their rows in paged row tables instead
// (pages.go), which successive snapshots share and patch copy-on-write
// through PatchPages.
package arena

import "fmt"

// Rows is an immutable CSR collection of rows of T: one contiguous data
// slice plus per-row offsets. The zero value is an empty collection.
type Rows[T any] struct {
	// offsets has NumRows()+1 entries; row i spans
	// data[offsets[i]:offsets[i+1]]. A nil offsets slice means zero rows.
	offsets []int64
	data    []T
}

// NewRows assembles a Rows from raw offsets and data, validating the CSR
// invariants: offsets non-decreasing, starting at 0 and ending at
// len(data). It takes ownership of both slices.
func NewRows[T any](offsets []int64, data []T) (*Rows[T], error) {
	if len(offsets) == 0 {
		if len(data) != 0 {
			return nil, fmt.Errorf("arena: %d data elements with no offsets", len(data))
		}
		return &Rows[T]{}, nil
	}
	if offsets[0] != 0 {
		return nil, fmt.Errorf("arena: offsets must start at 0, got %d", offsets[0])
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			return nil, fmt.Errorf("arena: offsets decrease at %d (%d < %d)", i, offsets[i], offsets[i-1])
		}
	}
	if last := offsets[len(offsets)-1]; last != int64(len(data)) {
		return nil, fmt.Errorf("arena: offsets end at %d, data has %d elements", last, len(data))
	}
	return &Rows[T]{offsets: offsets, data: data}, nil
}

// NumRows returns the number of rows.
func (r *Rows[T]) NumRows() int {
	if len(r.offsets) == 0 {
		return 0
	}
	return len(r.offsets) - 1
}

// NNZ returns the total number of elements across all rows.
func (r *Rows[T]) NNZ() int { return len(r.data) }

// Len returns the length of row i.
func (r *Rows[T]) Len(i int) int { return int(r.offsets[i+1] - r.offsets[i]) }

// Row returns row i as a capacity-clamped view into the shared backing
// array: appending to the returned slice reallocates instead of
// overwriting the next row.
func (r *Rows[T]) Row(i int) []T {
	lo, hi := r.offsets[i], r.offsets[i+1]
	return r.data[lo:hi:hi]
}

// Views materializes every row view in one [][]T. The per-row data stays
// shared; only the slice-header array is allocated.
func (r *Rows[T]) Views() [][]T {
	out := make([][]T, r.NumRows())
	for i := range out {
		out[i] = r.Row(i)
	}
	return out
}

// Offsets exposes the raw offsets array (do not mutate).
func (r *Rows[T]) Offsets() []int64 { return r.offsets }

// Data exposes the raw backing array (do not mutate).
func (r *Rows[T]) Data() []T { return r.data }

// Builder accumulates rows one at a time into a single backing array.
// It is not safe for concurrent use; parallel producers use one Builder
// per worker block.
type Builder[T any] struct {
	offsets []int64
	data    []T
}

// NewBuilder returns a Builder with capacity hints: rowsHint rows and
// nnzHint total elements (either may be 0).
func NewBuilder[T any](rowsHint, nnzHint int) *Builder[T] {
	b := &Builder[T]{offsets: make([]int64, 1, rowsHint+1)}
	if nnzHint > 0 {
		b.data = make([]T, 0, nnzHint)
	}
	return b
}

// AppendRow adds one complete row (row contents are copied).
func (b *Builder[T]) AppendRow(row []T) {
	b.data = append(b.data, row...)
	b.offsets = append(b.offsets, int64(len(b.data)))
}

// NumRows returns the number of rows appended so far.
func (b *Builder[T]) NumRows() int { return len(b.offsets) - 1 }

// Rows freezes the builder into an immutable Rows. The builder must not
// be used afterwards.
func (b *Builder[T]) Rows() *Rows[T] {
	return &Rows[T]{offsets: b.offsets, data: b.data}
}

// Filler builds a Rows whose row lengths are known up front (the counts
// array), filling rows in any order — the classic two-pass CSR
// construction used to invert the user→item edges into item profiles.
type Filler[T any] struct {
	offsets []int64
	next    []int64
	data    []T
}

// NewFiller allocates a Filler for rows of the given lengths.
func NewFiller[T any](counts []int) *Filler[T] {
	f := &Filler[T]{
		offsets: make([]int64, len(counts)+1),
		next:    make([]int64, len(counts)),
	}
	total := int64(0)
	for i, c := range counts {
		f.offsets[i] = total
		f.next[i] = total
		total += int64(c)
	}
	f.offsets[len(counts)] = total
	f.data = make([]T, total)
	return f
}

// Push appends v to row i. Pushing more elements than the row's declared
// count panics (it would corrupt the neighboring row).
func (f *Filler[T]) Push(i int, v T) {
	if f.next[i] == f.offsets[i+1] {
		panic("arena: Filler row overflow")
	}
	f.data[f.next[i]] = v
	f.next[i]++
}

// Rows freezes the filler. Underfilled rows are an error in every current
// producer, so Rows panics if any row was not filled to its declared
// count.
func (f *Filler[T]) Rows() *Rows[T] {
	for i := range f.next {
		if f.next[i] != f.offsets[i+1] {
			panic(fmt.Sprintf("arena: Filler row %d underfilled (%d of %d)", i, f.next[i]-f.offsets[i], f.offsets[i+1]-f.offsets[i]))
		}
	}
	return &Rows[T]{offsets: f.offsets, data: f.data}
}
