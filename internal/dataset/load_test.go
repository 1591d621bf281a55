package dataset

import (
	"bytes"
	"strings"
	"testing"
)

func TestLoadBasic(t *testing.T) {
	in := `# comment
u1 i1 2.5
u1 i2
u2 i1 1

u3 i3 4
`
	d, err := Load(strings.NewReader(in), LoadOptions{Name: "x", BuildItemProfiles: true})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if d.NumUsers() != 3 || d.NumItems() != 3 || d.NumRatings() != 4 {
		t.Fatalf("loaded %d users %d items %d ratings", d.NumUsers(), d.NumItems(), d.NumRatings())
	}
	// u1 is user 0, i1 is item 0 with rating 2.5; i2 got default rating 1.
	if got := d.Users[0].WeightOf(0); got != 2.5 {
		t.Errorf("u1/i1 rating = %v, want 2.5", got)
	}
	if got := d.Users[0].WeightOf(1); got != 1 {
		t.Errorf("u1/i2 rating = %v, want 1", got)
	}
	if err := d.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestLoadBinaryDropsRatings(t *testing.T) {
	in := "a x 5\nb x 3\n"
	d, err := Load(strings.NewReader(in), LoadOptions{Binary: true})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !d.Binary() {
		t.Error("binary load must drop ratings")
	}
}

func TestLoadAccumulatesDuplicates(t *testing.T) {
	// Gowalla-style repeated check-ins accumulate.
	in := "u loc 1\nu loc 1\nu loc 1\n"
	d, err := Load(strings.NewReader(in), LoadOptions{})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if d.NumRatings() != 1 {
		t.Fatalf("duplicates must collapse to one edge, got %d", d.NumRatings())
	}
	if got := d.Users[0].WeightOf(0); got != 3 {
		t.Errorf("accumulated rating = %v, want 3", got)
	}
}

func TestLoadErrors(t *testing.T) {
	if _, err := Load(strings.NewReader("justonefield\n"), LoadOptions{}); err == nil {
		t.Error("Load must reject malformed lines")
	}
	if _, err := Load(strings.NewReader("u i notanumber\n"), LoadOptions{}); err == nil {
		t.Error("Load must reject bad ratings")
	}
}

func TestLoadWithoutItemProfiles(t *testing.T) {
	d, err := Load(strings.NewReader("u i\n"), LoadOptions{BuildItemProfiles: false})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if d.items != nil {
		t.Error("item profiles must not be built unless requested")
	}
	d.EnsureItemProfiles()
	if len(d.items) != 1 || len(d.items[0]) != 1 {
		t.Errorf("EnsureItemProfiles built %v", d.items)
	}
}

func TestWriteLoadRoundTrip(t *testing.T) {
	orig := FromProfiles("rt", []map[uint32]float64{
		{0: 1.5, 2: 3},
		{1: 2},
		{0: 1, 1: 1, 2: 1},
	}, false)
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatalf("Write: %v", err)
	}
	back, err := Load(bytes.NewReader(buf.Bytes()), LoadOptions{Name: "rt", BuildItemProfiles: true})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	so, sb := orig.Stats(), back.Stats()
	if so.Users != sb.Users || so.Items != sb.Items || so.Ratings != sb.Ratings {
		t.Errorf("round trip stats changed: %+v vs %+v", so, sb)
	}
	// Weights must survive (ids may be renumbered, so compare via totals).
	sum := func(d *Dataset) float64 {
		var s float64
		for _, u := range d.Users {
			for i := range u.IDs {
				s += u.Weight(i)
			}
		}
		return s
	}
	if sum(orig) != sum(back) {
		t.Errorf("total rating mass changed: %v vs %v", sum(orig), sum(back))
	}
}

func TestWriteBinaryRoundTrip(t *testing.T) {
	orig, _, _ := Toy()
	var buf bytes.Buffer
	if err := Write(&buf, orig); err != nil {
		t.Fatalf("Write: %v", err)
	}
	back, err := Load(bytes.NewReader(buf.Bytes()), LoadOptions{BuildItemProfiles: true})
	if err != nil {
		t.Fatalf("Load: %v", err)
	}
	if !back.Binary() {
		t.Error("binary dataset must round-trip as binary")
	}
	if back.NumRatings() != orig.NumRatings() {
		t.Errorf("ratings changed: %d vs %d", back.NumRatings(), orig.NumRatings())
	}
}
