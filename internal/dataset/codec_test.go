package dataset

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"kiff/internal/arena"
	"kiff/internal/sparse"
)

func codecFixture(t *testing.T) *Dataset {
	t.Helper()
	d, err := New("fixture", []sparse.Vector{
		{IDs: []uint32{0, 2, 5}},                                  // binary
		{IDs: []uint32{1, 2}, Weights: []float64{0.5, 1.0 / 3.0}}, // weighted
		{}, // empty profile
		{IDs: []uint32{0, 5, 6}, Weights: []float64{4, 2.5, math.Pi}}, // weighted
		{IDs: []uint32{3}}, // binary singleton
	}, 7)
	if err != nil {
		t.Fatal(err)
	}
	d.EnsureItemProfiles()
	return d
}

func TestDatasetBinaryRoundTrip(t *testing.T) {
	orig := codecFixture(t)
	var buf bytes.Buffer
	if err := WriteBinary(&buf, orig); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if back.Name != orig.Name || back.NumUsers() != orig.NumUsers() || back.NumItems() != orig.NumItems() {
		t.Fatalf("shape changed: %s/%d/%d vs %s/%d/%d",
			back.Name, back.NumUsers(), back.NumItems(), orig.Name, orig.NumUsers(), orig.NumItems())
	}
	// Dataset-level binariness is preserved; in a *mixed* dataset the v2
	// format materializes binary users' implicit 1.0 ratings (one offsets
	// array describes both arenas), so per-user IsBinary may flip while
	// Weight stays bit-identical.
	if orig.Binary() != back.Binary() {
		t.Fatalf("dataset binariness changed: %v vs %v", back.Binary(), orig.Binary())
	}
	for u := range orig.Users {
		a, b := orig.Users[u], back.Users[u]
		if a.Len() != b.Len() {
			t.Fatalf("user %d: profile shape changed", u)
		}
		for i := range a.IDs {
			if a.IDs[i] != b.IDs[i] {
				t.Fatalf("user %d item %d: %d vs %d", u, i, a.IDs[i], b.IDs[i])
			}
			// Ratings must be bit-identical, not approximately equal.
			if math.Float64bits(a.Weight(i)) != math.Float64bits(b.Weight(i)) {
				t.Fatalf("user %d item %d: weight %v vs %v", u, i, a.Weight(i), b.Weight(i))
			}
		}
	}
	// The index is built lazily (decode allocates O(input) only); after
	// EnsureItemProfiles the loaded dataset passes the full invariant
	// check, inverted index included.
	if back.items != nil {
		t.Fatal("decoder built the item index eagerly; it must stay lazy")
	}
	back.EnsureItemProfiles()
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDatasetBinaryRoundTripEmpty(t *testing.T) {
	d, err := New("empty", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteBinary(&buf, d); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumUsers() != 0 || back.NumItems() != 0 {
		t.Fatalf("empty dataset decoded as %d users, %d items", back.NumUsers(), back.NumItems())
	}
}

func TestDatasetBinaryRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteBinary(&buf, codecFixture(t)); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()

	t.Run("every truncation errors", func(t *testing.T) {
		for cut := 0; cut < len(raw); cut++ {
			if _, err := ReadBinary(bytes.NewReader(raw[:cut])); err == nil {
				t.Fatalf("truncation at %d accepted", cut)
			}
		}
	})
	t.Run("every bit flip errors", func(t *testing.T) {
		for i := 0; i < len(raw); i++ {
			bad := append([]byte(nil), raw...)
			bad[i] ^= 0x01
			if _, err := ReadBinary(bytes.NewReader(bad)); !errors.Is(err, arena.ErrCorrupt) {
				t.Fatalf("bit flip at %d: err = %v, want ErrCorrupt", i, err)
			}
		}
	})
}

// FuzzDatasetDecode asserts the dataset decoder never panics and accepted
// datasets are valid and re-encode byte-identically.
func FuzzDatasetDecode(f *testing.F) {
	var buf bytes.Buffer
	d, err := New("seed", []sparse.Vector{{IDs: []uint32{0, 1}}}, 2)
	if err != nil {
		f.Fatal(err)
	}
	if err := WriteBinary(&buf, d); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte{})
	f.Add([]byte("KFD1"))

	f.Fuzz(func(t *testing.T, data []byte) {
		d, err := ReadBinary(bytes.NewReader(data))
		dv, errv := ViewBinary(bytes.Clone(data))
		// The streaming and zero-copy decoders must accept exactly the
		// same inputs and agree on the decoded shape.
		if (err == nil) != (errv == nil) {
			t.Fatalf("decoder disagreement: ReadBinary err=%v, ViewBinary err=%v", err, errv)
		}
		if err != nil {
			return
		}
		if dv.NumUsers() != d.NumUsers() || dv.NumItems() != d.NumItems() || dv.NumRatings() != d.NumRatings() {
			t.Fatalf("decoder shape disagreement")
		}
		if vErr := d.Validate(); vErr != nil {
			t.Fatalf("decoder accepted invalid dataset: %v", vErr)
		}
		var out bytes.Buffer
		if wErr := WriteBinary(&out, d); wErr != nil {
			t.Fatalf("re-encode failed: %v", wErr)
		}
		if _, rErr := ReadBinary(bytes.NewReader(out.Bytes())); rErr != nil {
			t.Fatalf("re-decode failed: %v", rErr)
		}
	})
}
