package knngraph

import (
	"bytes"
	"errors"
	"math"
	"testing"

	"kiff/internal/arena"
	"kiff/internal/knnheap"
)

func codecFixture() *Graph {
	s := knnheap.NewSet(5, 3)
	s.Update(0, 1, 0.5)
	s.Update(0, 2, 0.9)
	s.Update(0, 3, 1.0/3.0) // not decimal-representable: exercises bit-exactness
	s.Update(1, 0, 0.5)
	s.Update(2, 0, 0.9)
	s.Update(3, 4, 0.125)
	s.Update(4, 3, 0.125)
	return FromSet(s)
}

func TestGraphBinaryRoundTrip(t *testing.T) {
	orig := codecFixture()
	var buf bytes.Buffer
	n, err := orig.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Errorf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	back, err := ReadBinary(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatalf("ReadBinary: %v", err)
	}
	if back.K() != orig.K() || back.NumUsers() != orig.NumUsers() {
		t.Fatalf("shape changed: k=%d/%d users=%d/%d", back.K(), orig.K(), back.NumUsers(), orig.NumUsers())
	}
	for u := 0; u < orig.NumUsers(); u++ {
		a, b := orig.Neighbors(uint32(u)), back.Neighbors(uint32(u))
		if len(a) != len(b) {
			t.Fatalf("user %d: list sizes differ", u)
		}
		for i := range a {
			// Bit-identical, not approximately equal.
			if a[i].ID != b[i].ID || math.Float64bits(a[i].Sim) != math.Float64bits(b[i].Sim) {
				t.Fatalf("user %d entry %d: %v vs %v", u, i, a[i], b[i])
			}
		}
	}
}

func TestGraphBinaryRoundTripEmpty(t *testing.T) {
	var buf bytes.Buffer
	if _, err := New(4, nil).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := ReadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumUsers() != 0 || back.K() != 4 {
		t.Fatalf("empty graph decoded as k=%d users=%d", back.K(), back.NumUsers())
	}
}

func TestGraphBinaryRejectsCorruption(t *testing.T) {
	var buf bytes.Buffer
	if _, err := codecFixture().WriteTo(&buf); err != nil {
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
	t.Run("every bit flip in the header errors or round-trips valid", func(t *testing.T) {
		for i := 0; i < len(raw); i++ {
			bad := append([]byte(nil), raw...)
			bad[i] ^= 0x01
			g, err := ReadBinary(bytes.NewReader(bad))
			if err == nil {
				// CRC32 catches all single-bit flips; reaching here is a bug.
				t.Fatalf("bit flip at %d accepted (graph %v)", i, g)
			}
			if !errors.Is(err, arena.ErrCorrupt) {
				t.Fatalf("bit flip at %d: err %v does not wrap ErrCorrupt", i, err)
			}
		}
	})
	t.Run("wrong magic", func(t *testing.T) {
		bad := append([]byte("XXXX"), raw[4:]...)
		if _, err := ReadBinary(bytes.NewReader(bad)); !errors.Is(err, arena.ErrCorrupt) {
			t.Fatalf("err = %v", err)
		}
	})
}

// TestGraphBinaryRejectsAdversarialLengths pins the decoder against
// crafted inputs with a *valid* checksum whose length fields try to
// overflow the offset arithmetic or claim absurd shapes — these must
// error, never panic (the CRC only protects against accidental
// corruption, not adversarial construction).
func TestGraphBinaryRejectsAdversarialLengths(t *testing.T) {
	// craft writes a version-2 header, the offsets, and records zeroed
	// edge records.
	craft := func(k, n, e uint64, offsets []int64, records int) []byte {
		var buf bytes.Buffer
		w := arena.NewWriter(&buf, "KFG1", graphVersion)
		w.Uvarint(k)
		w.Uvarint(n)
		w.Uvarint(e)
		w.Align(8)
		w.Int64s(offsets)
		w.Raw(make([]byte, records*neighborRecSize))
		if err := w.Close(); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"k overflows int64", craft(1<<63, 4, 0, []int64{0, 0, 0, 0, 0}, 0)},
		{"row lengths overflow total", craft(5, 2, 2, []int64{0, 1<<63 - 1, 2}, 2)},
		{"offsets decrease", craft(5, 2, 4, []int64{0, 5, 4}, 4)},
		{"entries missing for claimed total", craft(5, 2, 10, []int64{0, 5, 10}, 0)},
		{"huge user count, no rows", craft(3, 1<<50, 0, nil, 0)},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			g, err := ReadBinary(bytes.NewReader(c.data))
			if err == nil {
				t.Fatalf("crafted input accepted: %v", g)
			}
			if !errors.Is(err, arena.ErrCorrupt) {
				t.Fatalf("err = %v, want ErrCorrupt", err)
			}
		})
	}
}

// FuzzGraphDecode asserts the binary decoder never panics, and that every
// accepted graph is valid and re-encodes byte-identically.
func FuzzGraphDecode(f *testing.F) {
	var buf bytes.Buffer
	if _, err := codecFixture().WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	var empty bytes.Buffer
	if _, err := New(1, nil).WriteTo(&empty); err != nil {
		f.Fatal(err)
	}
	f.Add(empty.Bytes())
	f.Add([]byte{})
	f.Add([]byte("KFG1"))
	f.Add([]byte("KFG1\x01\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01"))

	f.Fuzz(func(t *testing.T, data []byte) {
		g, err := ReadBinary(bytes.NewReader(data))
		gv, errv := ViewBinary(bytes.Clone(data))
		// The streaming and zero-copy decoders must accept exactly the
		// same inputs...
		if (err == nil) != (errv == nil) {
			t.Fatalf("decoder disagreement: ReadBinary err=%v, ViewBinary err=%v", err, errv)
		}
		if err != nil {
			return
		}
		// ...and agree on what they decoded.
		if gv.NumUsers() != g.NumUsers() || gv.NumEdges() != g.NumEdges() || gv.K() != g.K() {
			t.Fatalf("decoder shape disagreement")
		}
		if vErr := g.Validate(); vErr != nil {
			t.Fatalf("decoder accepted invalid graph: %v", vErr)
		}
		var out bytes.Buffer
		if _, wErr := g.WriteTo(&out); wErr != nil {
			t.Fatalf("re-encode failed: %v", wErr)
		}
		back, rErr := ReadBinary(bytes.NewReader(out.Bytes()))
		if rErr != nil {
			t.Fatalf("re-decode failed: %v", rErr)
		}
		if back.NumUsers() != g.NumUsers() || back.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape")
		}
	})
}
