package knngraph

// Zero-copy load path: ViewBinary decodes a version-2 graph file straight
// out of a byte buffer, and OpenMapped does so over a file mapping, so a
// serving process starts up without copying the arena through the heap.
// The offsets array and — on 64-bit little-endian hosts, where the
// on-disk edge record matches Neighbor's memory layout — the entries
// array alias the buffer, and the graph's rows are slices of it: a
// mapped load allocates O(|U|) row headers while the edge payload stays
// mapped, and the kernel page cache is shared across processes serving
// the same checkpoint.

import (
	"encoding/binary"
	"fmt"
	"math"
	"unsafe"

	"kiff/internal/arena"
)

// neighborRecordsViewable reports whether []Neighbor can be aliased onto
// raw on-disk records: the host must be little-endian and Neighbor's
// layout must match the 16-byte record spec (true on every 64-bit
// little-endian port; 32-bit ports may pack the struct differently and
// fall back to copying).
var neighborRecordsViewable = arena.HostLittleEndian &&
	unsafe.Sizeof(Neighbor{}) == neighborRecSize &&
	unsafe.Offsetof(Neighbor{}.ID) == 0 &&
	unsafe.Offsetof(Neighbor{}.Sim) == 8

// ViewBinary decodes a graph from an in-memory buffer, aliasing the
// buffer wherever the platform allows instead of copying (see the package
// comment of arena.View for the exact conditions). The returned Graph is
// valid only as long as buf is; do not mutate buf afterwards.
func ViewBinary(buf []byte) (*Graph, error) {
	v, version, err := arena.NewView(buf, graphMagic)
	if err != nil {
		return nil, fmt.Errorf("knngraph: %w", err)
	}
	if version != graphVersion {
		return nil, fmt.Errorf("knngraph: %w: unsupported version %d", arena.ErrCorrupt, version)
	}
	k := v.UvarintMax(maxK, "k")
	n := v.UvarintMax(maxUsers, "user count")
	e := v.UvarintMax(maxEdges, "edge count")
	v.Align(8)
	offsets := v.Int64s(n + 1)
	raw := v.Raw(e * neighborRecSize)
	if err := v.Err(); err != nil {
		return nil, fmt.Errorf("knngraph: %w", err)
	}
	if err := v.Close(); err != nil {
		return nil, fmt.Errorf("knngraph: %w", err)
	}
	// Record padding is part of the format: reject non-zero filler even
	// though the CRC already covered it.
	for i := uint64(0); i < e; i++ {
		if binary.LittleEndian.Uint32(raw[i*neighborRecSize+4:]) != 0 {
			return nil, fmt.Errorf("knngraph: %w: non-zero record padding", arena.ErrCorrupt)
		}
	}
	if err := validateOffsets(offsets, n, e); err != nil {
		return nil, err
	}
	return finishDecode(int(k), offsets, viewNeighbors(raw, e))
}

// viewNeighbors reinterprets raw edge records as a []Neighbor — in place
// when the layout matches, decoded into a fresh slice otherwise.
func viewNeighbors(raw []byte, e uint64) []Neighbor {
	if e == 0 {
		return nil
	}
	if neighborRecordsViewable && arena.Aligned8(raw) {
		return unsafe.Slice((*Neighbor)(unsafe.Pointer(unsafe.SliceData(raw))), e)
	}
	out := make([]Neighbor, e)
	for i := range out {
		off := i * neighborRecSize
		out[i] = Neighbor{
			ID:  binary.LittleEndian.Uint32(raw[off:]),
			Sim: math.Float64frombits(binary.LittleEndian.Uint64(raw[off+8:])),
		}
	}
	return out
}

// Mapped couples a zero-copy decoded Graph with the file mapping that
// backs its storage. Close invalidates the Graph — every neighbor list is
// a view into the mapping — so a server closes it only after the last
// reader is done (or leaves it open for the process lifetime).
type Mapped struct {
	g *Graph
	m *arena.Mapping
}

// OpenMapped maps the file at path (see arena.OpenMapping for the
// portable fallback) and decodes the graph in place.
func OpenMapped(path string) (*Mapped, error) {
	m, err := arena.OpenMapping(path)
	if err != nil {
		return nil, err
	}
	g, err := ViewBinary(m.Data())
	if err != nil {
		m.Close()
		return nil, err
	}
	return &Mapped{g: g, m: m}, nil
}

// Graph returns the decoded graph, valid until Close.
func (mp *Mapped) Graph() *Graph { return mp.g }

// Mapped reports whether the backing storage is a true memory mapping
// (false = the portable read-to-heap fallback).
func (mp *Mapped) Mapped() bool { return mp.m.Mapped() }

// Close releases the mapping. The Graph (and every neighbor list read
// from it) must not be used afterwards.
func (mp *Mapped) Close() error {
	mp.g = nil
	return mp.m.Close()
}
