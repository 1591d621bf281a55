package dataset

// Zero-copy load path: ViewBinary decodes a version-2 dataset file
// straight out of a byte buffer, and OpenMapped does so over a file
// mapping. The ID and weight arenas alias the buffer (on little-endian
// hosts with the sections aligned — see arena.View); only the per-user
// slice headers (O(numUsers), not O(ratings)) and the lazily built
// item-profile index live on the heap.
//
// A mapped dataset supports the full single-writer mutation discipline:
// AddUser and AddRating are copy-on-write at row granularity, so they
// allocate fresh rows on the heap and never write through the mapping.
// Compact, however, would copy every profile back onto heap arenas —
// long-lived maintainers that want to stay zero-copy should avoid it.

import (
	"fmt"

	"kiff/internal/arena"
)

// ViewBinary decodes a dataset from an in-memory buffer, aliasing the
// buffer wherever the platform allows instead of copying. The returned
// Dataset's profiles are valid only as long as buf is; do not mutate buf
// afterwards.
func ViewBinary(buf []byte) (*Dataset, error) {
	v, version, err := arena.NewView(buf, datasetMagic)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	if version != datasetVersion {
		return nil, fmt.Errorf("dataset: %w: unsupported version %d", arena.ErrCorrupt, version)
	}
	// decodeV2 runs the same field walk the streaming path uses; through
	// a View its raw sections alias buf (the name is copied out by the
	// string conversion inside, so Name survives the mapping).
	return decodeV2(v)
}

// Mapped couples a zero-copy decoded Dataset with the file mapping that
// backs its profile arenas. Close invalidates the Dataset; a server
// closes it only after the last reader is done (or leaves it open for the
// process lifetime).
type Mapped struct {
	d *Dataset
	m *arena.Mapping
}

// OpenMapped maps the file at path (see arena.OpenMapping for the
// portable fallback) and decodes the dataset in place.
func OpenMapped(path string) (*Mapped, error) {
	m, err := arena.OpenMapping(path)
	if err != nil {
		return nil, err
	}
	d, err := ViewBinary(m.Data())
	if err != nil {
		m.Close()
		return nil, err
	}
	return &Mapped{d: d, m: m}, nil
}

// Dataset returns the decoded dataset, valid until Close.
func (mp *Mapped) Dataset() *Dataset { return mp.d }

// Mapped reports whether the backing storage is a true memory mapping
// (false = the portable read-to-heap fallback).
func (mp *Mapped) Mapped() bool { return mp.m.Mapped() }

// Close releases the mapping. The Dataset (and every profile read from
// it) must not be used afterwards.
func (mp *Mapped) Close() error {
	mp.d = nil
	return mp.m.Close()
}
