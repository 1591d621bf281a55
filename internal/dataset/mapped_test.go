package dataset

import (
	"bytes"
	"errors"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"kiff/internal/arena"
	"kiff/internal/sparse"
)

// datasetsEquivalent fails unless a and b expose identical profiles
// (Weight compared bit-for-bit, so implicit and materialized 1.0 ratings
// agree).
func datasetsEquivalent(t *testing.T, a, b *Dataset) {
	t.Helper()
	if a.Name != b.Name || a.NumUsers() != b.NumUsers() || a.NumItems() != b.NumItems() {
		t.Fatalf("shape differs: %s/%d/%d vs %s/%d/%d",
			a.Name, a.NumUsers(), a.NumItems(), b.Name, b.NumUsers(), b.NumItems())
	}
	for u := range a.Users {
		pa, pb := a.Users[u], b.Users[u]
		if pa.Len() != pb.Len() {
			t.Fatalf("user %d: %d vs %d entries", u, pa.Len(), pb.Len())
		}
		for i := range pa.IDs {
			if pa.IDs[i] != pb.IDs[i] {
				t.Fatalf("user %d entry %d: item %d vs %d", u, i, pa.IDs[i], pb.IDs[i])
			}
			if math.Float64bits(pa.Weight(i)) != math.Float64bits(pb.Weight(i)) {
				t.Fatalf("user %d entry %d: weight bits differ", u, i)
			}
		}
	}
}

// TestViewBinaryMatchesReadBinary: the zero-copy decode and the streaming
// decode of the same bytes must agree.
func TestViewBinaryMatchesReadBinary(t *testing.T) {
	for _, fix := range []struct {
		name string
		d    func(t *testing.T) *Dataset
	}{
		{"mixed", codecFixture},
		{"all-binary", func(t *testing.T) *Dataset {
			d, err := New("bin", []sparse.Vector{
				{IDs: []uint32{0, 1}}, {}, {IDs: []uint32{2}},
			}, 3)
			if err != nil {
				t.Fatal(err)
			}
			return d
		}},
	} {
		t.Run(fix.name, func(t *testing.T) {
			orig := fix.d(t)
			var buf bytes.Buffer
			if err := WriteBinary(&buf, orig); err != nil {
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
			datasetsEquivalent(t, orig, viewed)
			datasetsEquivalent(t, read, viewed)
			if orig.Binary() != viewed.Binary() {
				t.Fatal("binariness changed through the view")
			}
		})
	}
}

// TestViewBinaryRejectsLegacyV1: version-1 files (varint-packed,
// delta-coded IDs) are no longer read; both entry points refuse them
// like any unknown version.
func TestViewBinaryRejectsLegacyV1(t *testing.T) {
	var buf bytes.Buffer
	w := arena.NewWriter(&buf, datasetMagic, 1)
	w.Bytes([]byte(codecFixture(t).Name))
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
	orig := codecFixture(t)
	path := filepath.Join(t.TempDir(), "data.kfd")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := WriteBinary(f, orig); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	mp, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	d := mp.Dataset()
	datasetsEquivalent(t, orig, d)

	// A mapped dataset is fully serviceable: the lazy item index builds,
	// and the copy-on-write mutators work without touching the mapping.
	d.EnsureItemProfiles()
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	if _, err := d.AddUser(sparse.Vector{IDs: []uint32{1, 6}}); err != nil {
		t.Fatal(err)
	}
	if err := d.AddRating(0, 2, 3.5); err != nil {
		t.Fatal(err)
	}
	if err := d.Validate(); err != nil {
		t.Fatal(err)
	}
	// The file bytes must be untouched by the mutations above.
	if err := mp.Close(); err != nil {
		t.Fatal(err)
	}
	reread, err := OpenMapped(path)
	if err != nil {
		t.Fatal(err)
	}
	defer reread.Close()
	datasetsEquivalent(t, orig, reread.Dataset())
}

// TestDecodersRejectTrailingData: both decode paths refuse bytes after
// the checksum trailer (a file is exactly one section).
func TestDecodersRejectTrailingData(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, codecFixture(t)); err != nil {
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
	if err := WriteBinary(&buf, codecFixture(t)); err != nil {
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
