package dataset

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzLoad is differential: on every input, Load must return what the
// reference parser (referenceLoad) returns, or the same error text, with
// Binary on and off. Everything it accepts must also round-trip through
// Write.
func FuzzLoad(f *testing.F) {
	seeds := []string{
		"",
		"# comment only\n",
		"u i\n",
		"u i 2.5\nu j 1\nv i 3\n",
		"a b -1\n",
		"a b 1e300\n",
		"a b NaN\n",
		"one\n",
		"u i notanumber\n",
		"\x00\x01\x02\n",
		"u\ti\t5\n",
		strings.Repeat("u i\n", 100),
		"7 1 2\n07 1 3\n+7 01 4\n4294967296 1\n",
		"0 9000 1\n1 0\n9000 9000 2\n",
		"u\u0085i 2\r\n  # nbsp comment\nü i\n",
		"u i 1.5\nu j\nu i 2.25\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, input string) {
		for _, binary := range []bool{false, true} {
			opts := LoadOptions{Name: "fuzz", BuildItemProfiles: true, Binary: binary}
			if diff := diffLoad([]byte(input), opts); diff != "" {
				t.Fatalf("Binary %v: %s\ninput: %q", binary, diff, input)
			}
		}
		d, err := Load(strings.NewReader(input), LoadOptions{Name: "fuzz", BuildItemProfiles: true})
		if err != nil {
			return // rejected input is fine; panics are not
		}
		if vErr := d.Validate(); vErr != nil {
			t.Fatalf("accepted invalid dataset: %v\ninput: %q", vErr, input)
		}
		var buf bytes.Buffer
		if wErr := Write(&buf, d); wErr != nil {
			t.Fatalf("Write failed on accepted dataset: %v", wErr)
		}
		back, rErr := Load(bytes.NewReader(buf.Bytes()), LoadOptions{Name: "fuzz2"})
		if rErr != nil {
			t.Fatalf("round trip failed: %v\noriginal input: %q\nserialized: %q", rErr, input, buf.String())
		}
		if back.NumRatings() != d.NumRatings() {
			t.Fatalf("round trip changed |E|: %d vs %d (input %q)", back.NumRatings(), d.NumRatings(), input)
		}
	})
}
