package knngraph

// Binary graph codec. A built KNN graph is saved once by the construction
// process and loaded by any number of serving processes, skipping
// construction entirely (cmd/kiffknn -save / -load, cmd/kiffserve).
// docs/FORMATS.md is the normative specification; the shape is the CSR
// arena almost verbatim.
//
// Version 2 (written by WriteTo) lays the arena out as 8-byte-aligned
// fixed-width sections so a serving process can map the file and view the
// offsets and edge records in place (see mapped.go):
//
//	magic "KFG1", version 2 (arena codec framing, CRC32 trailer)
//	uvarint k
//	uvarint numUsers
//	uvarint numEdges
//	zero padding to an 8-byte payload offset
//	(numUsers+1) × int64 row offsets, little-endian
//	numEdges × 16-byte edge record:
//	    uint32 neighbor ID (LE) · 4 zero bytes · float64 similarity bits (LE)
//
// Version 1 (varint-packed, written by releases before the mmap path)
// is no longer read: it fails like any unknown version.
//
// Similarities are stored as raw IEEE-754 bits, so a decoded graph is
// bit-identical to the encoded one — recall computed against a loaded
// graph is exactly the recall of the in-memory graph.

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"kiff/internal/arena"
)

const (
	graphMagic   = "KFG1"
	graphVersion = 2
	// maxK is the format's neighborhood-size limit. k flows into O(n·k)
	// allocations in every consumer (heaps, recall ground truth), so the
	// decoder must not accept arbitrary claimed values; the paper's
	// configurations use k ≤ 50, and 2¹⁶ leaves two orders of magnitude
	// of headroom. The encoder enforces the same bound so every written
	// file stays loadable.
	maxK = 1 << 16
	// maxUsers / maxEdges bound the claimed counts so offset arithmetic
	// (numUsers+1 offsets, numEdges×16 record bytes) can never overflow;
	// both are far beyond any file that fits on disk.
	maxUsers = 1 << 40
	maxEdges = 1 << 44
	// neighborRecSize is the on-disk size of one edge record: uint32 ID,
	// 4 bytes zero padding, float64 bits. The padding makes the record
	// match the in-memory layout of Neighbor on 64-bit little-endian
	// hosts, which is what lets mapped loads view records in place.
	neighborRecSize = 16
)

// WriteTo serializes the graph in the current (version 2, mappable)
// binary format. It implements io.WriterTo.
func (g *Graph) WriteTo(w io.Writer) (int64, error) {
	if g.k > maxK {
		return 0, fmt.Errorf("knngraph: k = %d exceeds the format limit %d", g.k, maxK)
	}
	aw := arena.NewWriter(w, graphMagic, graphVersion)
	aw.Uvarint(uint64(g.k))
	aw.Uvarint(uint64(g.NumUsers()))
	aw.Uvarint(uint64(g.numEdges))
	aw.Align(8)
	// The on-disk offsets section is one flat (numUsers+1)-long array of
	// row boundaries into one flat edge section. Rows are separate slices,
	// so derive the boundaries from the row lengths and pack the records
	// across rows while streaming: arena.Int64s and Raw write raw bytes
	// with no framing, which makes the chunked writes concatenate
	// byte-identically to a flat write — a patched graph serializes
	// exactly like its flat-CSR equivalent (the round-trip fuzzer pins
	// this).
	aw.Int64s([]int64{0})
	var offs [PageUsers]int64
	var end int64
	for _, pg := range g.pages {
		for i, row := range pg {
			end += int64(len(row))
			offs[i] = end
		}
		aw.Int64s(offs[:len(pg)])
	}
	var rec [256 * neighborRecSize]byte
	j := 0
	for _, pg := range g.pages {
		for _, row := range pg {
			for _, e := range row {
				off := j * neighborRecSize
				binary.LittleEndian.PutUint32(rec[off:], e.ID)
				binary.LittleEndian.PutUint32(rec[off+4:], 0)
				binary.LittleEndian.PutUint64(rec[off+8:], math.Float64bits(e.Sim))
				if j++; j == 256 {
					aw.Raw(rec[:])
					j = 0
				}
			}
		}
	}
	aw.Raw(rec[:j*neighborRecSize])
	err := aw.Close()
	return aw.Count(), err
}

// ReadBinary decodes a graph written by WriteTo, verifying the checksum and the graph invariants, with every byte copied
// through the heap — the portable path. For the zero-copy alternative see
// ViewBinary/OpenMapped. Corrupt input yields an error wrapping
// arena.ErrCorrupt; decoding never panics and allocates no more than a
// constant factor of the input size.
func ReadBinary(r io.Reader) (*Graph, error) {
	ar, version, err := arena.NewReader(r, graphMagic)
	if err != nil {
		return nil, fmt.Errorf("knngraph: %w", err)
	}
	if version != graphVersion {
		return nil, fmt.Errorf("knngraph: %w: unsupported version %d", arena.ErrCorrupt, version)
	}
	return readV2(ar)
}

// readV2 decodes the aligned-section layout through the heap. Unlike the
// dataset codec, the streaming and zero-copy paths are not unified over
// arena.Decoder: the edge-record section must be chunk-decoded here (an
// adversarial numEdges may not buy a single up-front allocation) but is
// cast in place by ViewBinary — the fuzzer pins their agreement instead.
func readV2(ar *arena.Reader) (*Graph, error) {
	k := ar.UvarintMax(maxK, "k")
	n := ar.UvarintMax(maxUsers, "user count")
	e := ar.UvarintMax(maxEdges, "edge count")
	ar.Align(8)
	offsets := ar.Int64s(n + 1)
	var entries []Neighbor
	if ar.Err() == nil {
		entries = make([]Neighbor, 0, arena.PreallocCap(e))
		var rec [256 * neighborRecSize]byte
		for got := uint64(0); got < e && ar.Err() == nil; {
			c := min(e-got, 256)
			ar.Raw(rec[:c*neighborRecSize])
			if ar.Err() != nil {
				break
			}
			for j := uint64(0); j < c; j++ {
				off := j * neighborRecSize
				if binary.LittleEndian.Uint32(rec[off+4:]) != 0 {
					return nil, fmt.Errorf("knngraph: %w: non-zero record padding", arena.ErrCorrupt)
				}
				entries = append(entries, Neighbor{
					ID:  binary.LittleEndian.Uint32(rec[off:]),
					Sim: math.Float64frombits(binary.LittleEndian.Uint64(rec[off+8:])),
				})
			}
			got += c
		}
	}
	if err := ar.Err(); err != nil {
		return nil, fmt.Errorf("knngraph: %w", err)
	}
	if err := ar.Close(); err != nil {
		return nil, fmt.Errorf("knngraph: %w", err)
	}
	if err := validateOffsets(offsets, n, e); err != nil {
		return nil, err
	}
	return finishDecode(int(k), offsets, entries)
}

// validateOffsets checks the CSR invariants of a decoded offsets array
// against the claimed user and edge counts.
func validateOffsets(offsets []int64, n, e uint64) error {
	if uint64(len(offsets)) != n+1 || len(offsets) == 0 {
		return fmt.Errorf("knngraph: %w: %d offsets for %d users", arena.ErrCorrupt, len(offsets), n)
	}
	if offsets[0] != 0 {
		return fmt.Errorf("knngraph: %w: offsets start at %d", arena.ErrCorrupt, offsets[0])
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			return fmt.Errorf("knngraph: %w: offsets decrease at %d", arena.ErrCorrupt, i)
		}
	}
	if last := offsets[len(offsets)-1]; uint64(last) != e {
		return fmt.Errorf("knngraph: %w: offsets end at %d, %d edges claimed", arena.ErrCorrupt, last, e)
	}
	return nil
}

// finishDecode assembles the graph and runs the structural validation
// shared by every decode path.
func finishDecode(k int, offsets []int64, entries []Neighbor) (*Graph, error) {
	g := fromParts(k, offsets, entries)
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("knngraph: %w: %v", arena.ErrCorrupt, err)
	}
	return g, nil
}
