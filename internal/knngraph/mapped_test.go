package knngraph

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kiff/internal/arena"
)

// graphsBitIdentical fails the test unless a and b have identical shape
// and bit-identical entries.
func graphsBitIdentical(t *testing.T, a, b *Graph) {
	t.Helper()
	if a.K() != b.K() || a.NumUsers() != b.NumUsers() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape differs: k=%d/%d users=%d/%d edges=%d/%d",
			a.K(), b.K(), a.NumUsers(), b.NumUsers(), a.NumEdges(), b.NumEdges())
	}
	for u := 0; u < a.NumUsers(); u++ {
		la, lb := a.Neighbors(uint32(u)), b.Neighbors(uint32(u))
		if len(la) != len(lb) {
			t.Fatalf("user %d: list sizes differ", u)
		}
		for i := range la {
			if la[i].ID != lb[i].ID || math.Float64bits(la[i].Sim) != math.Float64bits(lb[i].Sim) {
				t.Fatalf("user %d entry %d: %v vs %v", u, i, la[i], lb[i])
			}
		}
	}
}

// TestViewBinaryMatchesReadBinary: the zero-copy decode and the streaming
// decode of the same bytes must agree bit for bit.
func TestViewBinaryMatchesReadBinary(t *testing.T) {
	orig := codecFixture()
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	viewed, err := ViewBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	read, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	graphsBitIdentical(t, orig, viewed)
	graphsBitIdentical(t, read, viewed)
}

// TestViewBinaryRejectsLegacyV1: version-1 files (the varint-packed
// layout of releases before the mmap path) are no longer read; both entry
// points refuse them like any unknown version.
func TestViewBinaryRejectsLegacyV1(t *testing.T) {
	var buf bytes.Buffer
	w := arena.NewWriter(&buf, graphMagic, 1)
	w.Uvarint(uint64(codecFixture().K()))
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadBinary(bytes.NewReader(buf.Bytes())); !errors.Is(err, arena.ErrCorrupt) || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("ReadBinary(v1) = %v, want ErrCorrupt \"unsupported version 1\"", err)
	}
	if _, err := ViewBinary(buf.Bytes()); !errors.Is(err, arena.ErrCorrupt) || !strings.Contains(err.Error(), "unsupported version 1") {
		t.Fatalf("ViewBinary(v1) = %v, want ErrCorrupt \"unsupported version 1\"", err)
	}
}

func TestOpenMapped(t *testing.T) {
	orig := codecFixture()
	path := filepath.Join(t.TempDir(), "graph.kfg")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := orig.WriteTo(f); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	mp, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	graphsBitIdentical(t, orig, mp.Graph())
	if err := mp.Close(); err != nil {
		t.Fatal(err)
	}

	// Corrupt file: OpenMapped must fail cleanly and release the mapping.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0xFF
	bad := filepath.Join(t.TempDir(), "bad.kfg")
	if err := os.WriteFile(bad, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenMapped(bad); !errors.Is(err, arena.ErrCorrupt) {
		t.Fatalf("corrupt mapped open: err = %v", err)
	}
}

// TestViewBinaryZeroCopy pins the headline property: on a platform where
// records are viewable, the viewed graph's arenas alias the input buffer.
func TestViewBinaryZeroCopy(t *testing.T) {
	if !neighborRecordsViewable {
		t.Skip("neighbor records not viewable on this platform")
	}
	orig := codecFixture()
	var buf bytes.Buffer
	if _, err := orig.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	if !arena.Aligned8(raw) {
		t.Skip("test buffer not 8-byte aligned")
	}
	g, err := ViewBinary(raw)
	if err != nil {
		t.Fatal(err)
	}
	// Mutating a similarity byte in the buffer must show through the
	// decoded graph — proof the entries were not copied.
	target := g.Neighbors(0)[0]
	// Find the record for (user 0, first neighbor): records start after
	// the offsets section; locate by scanning for the bit pattern.
	want := math.Float64bits(target.Sim)
	found := false
	for off := 0; off+8 <= len(raw); off++ {
		if binaryLEUint64(raw[off:]) == want {
			raw[off] ^= 0x01
			if math.Float64bits(g.Neighbors(0)[0].Sim) != want^0x01 {
				raw[off] ^= 0x01 // restore; it was some other field
				continue
			}
			raw[off] ^= 0x01
			found = true
			break
		}
	}
	if !found {
		t.Fatal("entries arena does not alias the input buffer (copied?)")
	}
}

func binaryLEUint64(p []byte) uint64 {
	var x uint64
	for i := 0; i < 8; i++ {
		x |= uint64(p[i]) << (8 * i)
	}
	return x
}

// TestDecodersRejectTrailingData: a file is exactly one section, and the
// two decoders must agree on that — the streaming reader anchors the
// trailer by EOF, the view by the end of the buffer.
func TestDecodersRejectTrailingData(t *testing.T) {
	var buf bytes.Buffer
	if _, err := codecFixture().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := append(buf.Bytes(), 0xAB)
	if _, err := ReadBinary(bytes.NewReader(raw)); !errors.Is(err, arena.ErrCorrupt) {
		t.Fatalf("ReadBinary accepted trailing data: err = %v", err)
	}
	if _, err := ViewBinary(raw); !errors.Is(err, arena.ErrCorrupt) {
		t.Fatalf("ViewBinary accepted trailing data: err = %v", err)
	}
}

// TestViewBinaryRejectsCorruption mirrors the streaming decoder's
// corruption tests on the zero-copy path.
func TestViewBinaryRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if _, err := codecFixture().WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	for cut := 0; cut < len(raw); cut++ {
		if _, err := ViewBinary(raw[:cut]); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	for i := 0; i < len(raw); i++ {
		bad := append([]byte(nil), raw...)
		bad[i] ^= 0x01
		if _, err := ViewBinary(bad); !errors.Is(err, arena.ErrCorrupt) {
			t.Fatalf("bit flip at %d: err = %v", i, err)
		}
	}
}
