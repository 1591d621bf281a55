package sparse

import (
	"math/rand"
	"testing"
)

// mergeCommon is the plain two-pointer reference the adaptive kernels
// must agree with.
func mergeCommon(a, b Vector) int {
	n := 0
	i, j := 0, 0
	for i < len(a.IDs) && j < len(b.IDs) {
		switch {
		case a.IDs[i] == b.IDs[j]:
			n++
			i++
			j++
		case a.IDs[i] < b.IDs[j]:
			i++
		default:
			j++
		}
	}
	return n
}

func mergeDot(a, b Vector) float64 {
	var s float64
	i, j := 0, 0
	for i < len(a.IDs) && j < len(b.IDs) {
		switch {
		case a.IDs[i] == b.IDs[j]:
			s += a.Weight(i) * b.Weight(j)
			i++
			j++
		case a.IDs[i] < b.IDs[j]:
			i++
		default:
			j++
		}
	}
	return s
}

// TestGallopMatchesMerge: CommonCount and Dot agree with the reference
// merge on skewed pairs that force the galloping path, in both argument
// orders, bit for bit for the float accumulation.
func TestGallopMatchesMerge(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	for trial := 0; trial < 300; trial++ {
		// Short side up to 8 entries, long side well past GallopRatio×
		// that, so the adaptive cutover is exercised on every trial.
		short := randScratchVector(r, 5000, r.Intn(8), false)
		long := randScratchVector(r, 5000, GallopRatio*10+r.Intn(400), false)
		for _, pair := range [][2]Vector{{short, long}, {long, short}} {
			a, b := pair[0], pair[1]
			if got, want := CommonCount(a, b), mergeCommon(a, b); got != want {
				t.Fatalf("trial %d: CommonCount = %d, want %d (|a|=%d |b|=%d)",
					trial, got, want, a.Len(), b.Len())
			}
			if got, want := Dot(a, b), mergeDot(a, b); got != want {
				t.Fatalf("trial %d: Dot = %v, want %v (bit-exact; |a|=%d |b|=%d)",
					trial, got, want, a.Len(), b.Len())
			}
		}
	}
}

// TestGallopEdges covers the bracket boundaries: needle before, inside
// and after the haystack, empty sides, and single elements.
func TestGallopEdges(t *testing.T) {
	long := Vector{IDs: []uint32{10, 20, 30, 40, 50, 60, 70, 80, 90, 100,
		110, 120, 130, 140, 150, 160, 170, 180, 190, 200}}
	cases := []struct {
		short []uint32
		want  int
	}{
		{nil, 0},
		{[]uint32{5}, 0},
		{[]uint32{10}, 1},
		{[]uint32{200}, 1},
		{[]uint32{201}, 0},
		{[]uint32{10, 200}, 2},
		{[]uint32{5, 95, 205}, 0},
		{[]uint32{10, 20, 30}, 3},
	}
	for _, c := range cases {
		got := commonCountGallop(c.short, long.IDs)
		if got != c.want {
			t.Errorf("gallop(%v) = %d, want %d", c.short, got, c.want)
		}
	}
	if got := commonCountGallop([]uint32{1, 2, 3}, nil); got != 0 {
		t.Errorf("empty haystack: got %d, want 0", got)
	}
}
