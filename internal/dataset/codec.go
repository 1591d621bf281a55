package dataset

// Binary dataset codec, the profile-side companion of the graph codec:
// a serving process loads the dataset (for queries and profile lookups)
// and the prebuilt graph, and skips construction entirely.
// docs/FORMATS.md is the normative specification.
//
// Version 2 (written by WriteBinary) lays the profile CSR out as
// 8-byte-aligned fixed-width sections so a serving process can map the
// file and view the arenas in place (see mapped.go):
//
//	magic "KFD1", version 2 (arena codec framing, CRC32 trailer)
//	bytes  name
//	uvarint numUsers
//	uvarint numItems
//	uvarint numRatings (total profile entries)
//	uvarint weighted flag (1 = a weights section follows the IDs)
//	zero padding to an 8-byte payload offset
//	(numUsers+1) × int64 profile offsets, little-endian
//	numRatings × uint32 item ID (absolute, strictly ascending per user)
//	[weighted only] zero padding to 8 bytes, then
//	numRatings × float64 rating bits
//
// If any user carries explicit weights, every user's weights are
// materialized (binary profiles as literal 1.0s) so a single offsets
// array describes both arenas. Ratings keep their IEEE-754 bits, so every
// similarity computed from a loaded dataset is bit-identical. A dataset
// whose users are all binary stays binary (no weights section).
//
// Version 1 (varint-packed, delta-coded IDs) is no longer read: it
// fails like any unknown version.
//
// Profiles are decoded straight into shared arenas (the same layout
// Compact produces). The item-profile index is NOT rebuilt eagerly: it
// is a pure function of the profiles, costs O(|E| + numItems), and
// numItems is a claimed field — rebuilding it inside the decoder would
// let a few crafted bytes force a numItems-sized allocation. Consumers
// build it on first use (EnsureItemProfiles), which the query/index/
// maintenance paths already do; the decoder itself allocates no more
// than a constant factor of the input size.

import (
	"fmt"
	"io"

	"kiff/internal/arena"
	"kiff/internal/sparse"
)

const (
	datasetMagic   = "KFD1"
	datasetVersion = 2
	maxNameLen     = 1 << 16
	// maxUsers / maxRatings bound the claimed counts so the offset and
	// section-size arithmetic can never overflow; both are far beyond any
	// file that fits on disk.
	maxUsers   = 1 << 40
	maxRatings = 1 << 44
)

// WriteBinary serializes the dataset in the current (version 2, mappable)
// binary format. Ratings keep their exact IEEE-754 bits, so a load
// reproduces the dataset bit-identically (unlike the text edge-list round
// trip, which goes through decimal formatting).
func WriteBinary(w io.Writer, d *Dataset) error {
	if len(d.Name) > maxNameLen {
		// The decoder bounds the name field; enforcing the same bound here
		// keeps every written file loadable.
		return fmt.Errorf("dataset: name is %d bytes, max %d", len(d.Name), maxNameLen)
	}
	nnz := 0
	weighted := false
	for _, u := range d.Users {
		nnz += u.Len()
		weighted = weighted || u.Weights != nil
	}
	aw := arena.NewWriter(w, datasetMagic, datasetVersion)
	aw.Bytes([]byte(d.Name))
	aw.Uvarint(uint64(len(d.Users)))
	aw.Uvarint(uint64(d.numItems))
	aw.Uvarint(uint64(nnz))
	flag := uint64(0)
	if weighted {
		flag = 1
	}
	aw.Uvarint(flag)
	aw.Align(8)
	offsets := make([]int64, 0, len(d.Users)+1)
	total := int64(0)
	offsets = append(offsets, 0)
	for _, u := range d.Users {
		total += int64(u.Len())
		offsets = append(offsets, total)
	}
	aw.Int64s(offsets)
	for _, u := range d.Users {
		aw.Uint32s(u.IDs)
	}
	if weighted {
		aw.Align(8)
		var ones []float64
		for _, u := range d.Users {
			if u.Weights != nil {
				aw.Float64s(u.Weights)
				continue
			}
			// Binary profile in a weighted file: materialize the implicit
			// 1.0 ratings (Vector.Weight's contract).
			if len(ones) < u.Len() {
				ones = make([]float64, max(u.Len(), 256))
				for i := range ones {
					ones[i] = 1
				}
			}
			aw.Float64s(ones[:u.Len()])
		}
	}
	return aw.Close()
}

// ReadBinary decodes a dataset written by WriteBinary, verifying the
// checksum and the dataset invariants, with every byte copied through
// the heap — the portable path. For the zero-copy
// alternative see ViewBinary/OpenMapped. The item-profile index is left
// unbuilt (see the package comment); EnsureItemProfiles builds it on
// first use. Corrupt input yields an error wrapping arena.ErrCorrupt;
// decoding never panics and allocates no more than a constant factor of
// the input size.
func ReadBinary(r io.Reader) (*Dataset, error) {
	ar, version, err := arena.NewReader(r, datasetMagic)
	if err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	if version != datasetVersion {
		return nil, fmt.Errorf("dataset: %w: unsupported version %d", arena.ErrCorrupt, version)
	}
	return decodeV2(ar)
}

// decodeV2 walks the aligned-section layout through either decode path —
// arena.Reader (heap) or arena.View (zero-copy) — so the two can never
// diverge field by field.
func decodeV2(dec arena.Decoder) (*Dataset, error) {
	name := dec.Bytes(maxNameLen)
	numUsers := dec.UvarintMax(maxUsers, "user count")
	numItems := dec.UvarintMax(1<<32, "item count")
	nnz := dec.UvarintMax(maxRatings, "rating count")
	weighted := dec.UvarintMax(1, "weighted flag")
	dec.Align(8)
	offsets := dec.Int64s(numUsers + 1)
	ids := dec.Uint32s(nnz)
	var weights []float64
	if weighted == 1 {
		dec.Align(8)
		weights = dec.Float64s(nnz)
	}
	if err := dec.Err(); err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	if err := dec.Close(); err != nil {
		return nil, fmt.Errorf("dataset: %w", err)
	}
	return assembleV2(string(name), numItems, offsets, ids, weights, nnz)
}

// assembleV2 builds the Dataset over decoded (or viewed) arenas, checking
// every structural invariant of the format. Shared by readV2 and
// ViewBinary.
func assembleV2(name string, numItems uint64, offsets []int64, ids []uint32, weights []float64, nnz uint64) (*Dataset, error) {
	if len(offsets) == 0 || offsets[0] != 0 {
		return nil, fmt.Errorf("dataset: %w: malformed offsets", arena.ErrCorrupt)
	}
	for i := 1; i < len(offsets); i++ {
		if offsets[i] < offsets[i-1] {
			return nil, fmt.Errorf("dataset: %w: offsets decrease at %d", arena.ErrCorrupt, i)
		}
	}
	if last := offsets[len(offsets)-1]; uint64(last) != nnz {
		return nil, fmt.Errorf("dataset: %w: offsets end at %d, %d ratings claimed", arena.ErrCorrupt, last, nnz)
	}
	users := make([]sparse.Vector, len(offsets)-1)
	for i := range users {
		lo, hi := offsets[i], offsets[i+1]
		users[i] = sparse.Vector{IDs: ids[lo:hi:hi]}
		if weights != nil {
			users[i].Weights = weights[lo:hi:hi]
		}
	}
	d := &Dataset{Name: name, Users: users, numItems: int(numItems)}
	// Validate covers the per-profile invariants the flat sections cannot
	// express structurally: IDs strictly ascending and below numItems.
	if err := d.Validate(); err != nil {
		return nil, fmt.Errorf("dataset: %w: %v", arena.ErrCorrupt, err)
	}
	return d, nil
}
