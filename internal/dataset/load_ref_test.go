package dataset

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"testing"

	"kiff/internal/sparse"
)

// referenceLoad is the straightforward edge-list parser Load replaced,
// kept as its test oracle: a string per line, strings.Fields, a map per
// column, a slice per user sorted by item, then Compact. Its one change
// is the stable sort, so duplicate pairs sum in file order as Load
// documents; the unstable sort.Slice it used before summed them in an
// unspecified order once a profile passed 12 lines.
func referenceLoad(r io.Reader, opts LoadOptions) (*Dataset, error) {
	type edge struct {
		item   uint32
		rating float64
	}
	userIDs := make(map[string]uint32)
	itemIDs := make(map[string]uint32)
	var profiles [][]edge

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<22)
	lineNo := 0
	sawRating := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("dataset: line %d: want 'user item [rating]', got %q", lineNo, line)
		}
		rating := 1.0
		if len(fields) >= 3 && !opts.Binary {
			v, err := strconv.ParseFloat(fields[2], 64)
			if err != nil {
				return nil, fmt.Errorf("dataset: line %d: bad rating %q: %v", lineNo, fields[2], err)
			}
			rating = v
			sawRating = true
		}
		uid, ok := userIDs[fields[0]]
		if !ok {
			uid = uint32(len(userIDs))
			userIDs[fields[0]] = uid
			profiles = append(profiles, nil)
		}
		iid, ok := itemIDs[fields[1]]
		if !ok {
			iid = uint32(len(itemIDs))
			itemIDs[fields[1]] = iid
		}
		profiles[uid] = append(profiles[uid], edge{item: iid, rating: rating})
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: read: %w", err)
	}

	binary := opts.Binary || !sawRating
	users := make([]sparse.Vector, len(profiles))
	for uid, es := range profiles {
		sort.SliceStable(es, func(a, b int) bool { return es[a].item < es[b].item })
		ids := make([]uint32, 0, len(es))
		var weights []float64
		if !binary {
			weights = make([]float64, 0, len(es))
		}
		for i := 0; i < len(es); {
			j := i
			r := 0.0
			for j < len(es) && es[j].item == es[i].item {
				r += es[j].rating
				j++
			}
			ids = append(ids, es[i].item)
			if !binary {
				weights = append(weights, r)
			}
			i = j
		}
		users[uid] = sparse.Vector{IDs: ids, Weights: weights}
	}

	d := &Dataset{Name: opts.Name, Users: users, numItems: len(itemIDs)}
	d.Compact()
	if opts.BuildItemProfiles {
		d.EnsureItemProfiles()
	}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// diffDatasets describes the first difference between two loaded
// datasets, or returns "" if they agree on the name, the user and item
// numbering, every profile's IDs and weight bits (binary profiles
// included), NumItems, Binary and, when built, the item index.
func diffDatasets(got, want *Dataset) string {
	switch {
	case got.Name != want.Name:
		return fmt.Sprintf("name %q, want %q", got.Name, want.Name)
	case got.NumUsers() != want.NumUsers():
		return fmt.Sprintf("%d users, want %d", got.NumUsers(), want.NumUsers())
	case got.NumItems() != want.NumItems():
		return fmt.Sprintf("%d items, want %d", got.NumItems(), want.NumItems())
	case got.Binary() != want.Binary():
		return fmt.Sprintf("Binary() = %v, want %v", got.Binary(), want.Binary())
	case (got.items == nil) != (want.items == nil):
		return fmt.Sprintf("item index built = %v, want %v", got.items != nil, want.items != nil)
	}
	for u := range want.Users {
		g, w := got.Users[u], want.Users[u]
		if (g.Weights == nil) != (w.Weights == nil) || g.Len() != w.Len() {
			return fmt.Sprintf("user %d: %v, want %v", u, g, w)
		}
		for i := range w.IDs {
			if g.IDs[i] != w.IDs[i] || math.Float64bits(g.Weight(i)) != math.Float64bits(w.Weight(i)) {
				return fmt.Sprintf("user %d entry %d: (%d, %v), want (%d, %v)", u, i, g.IDs[i], g.Weight(i), w.IDs[i], w.Weight(i))
			}
		}
	}
	if want.items == nil {
		return ""
	}
	for i := range want.items {
		g, w := got.Raters(uint32(i)), want.Raters(uint32(i))
		if len(g) != len(w) {
			return fmt.Sprintf("item %d: %d raters, want %d", i, len(g), len(w))
		}
		for j := range w {
			if g[j] != w[j] {
				return fmt.Sprintf("item %d rater %d: %+v, want %+v", i, j, g[j], w[j])
			}
		}
	}
	if got.Weighted() != want.Weighted() {
		return fmt.Sprintf("Weighted() = %v, want %v", got.Weighted(), want.Weighted())
	}
	return ""
}

// diffLoad loads input with Load and with referenceLoad and describes
// the first difference: in the datasets, or in the error text (which
// carries the line number).
func diffLoad(input []byte, opts LoadOptions) string {
	got, gErr := Load(bytes.NewReader(input), opts)
	want, wErr := referenceLoad(bytes.NewReader(input), opts)
	switch {
	case gErr != nil || wErr != nil:
		if fmt.Sprint(gErr) != fmt.Sprint(wErr) {
			return fmt.Sprintf("error %v, want %v", gErr, wErr)
		}
		return ""
	default:
		return diffDatasets(got, want)
	}
}

// TestLoadMatchesReference: on the Write output of every generator and on
// hand-written edge cases, Load returns what the reference parser
// returns, or the same error, with and without Binary and the item index.
func TestLoadMatchesReference(t *testing.T) {
	type input struct {
		name string
		text []byte
	}
	var inputs []input
	written := func(name string, d *Dataset) {
		var buf bytes.Buffer
		if err := Write(&buf, d); err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{"write/" + name, buf.Bytes()})
	}
	for _, p := range Presets {
		d, err := p.Generate(0.02, 5)
		if err != nil {
			t.Fatal(err)
		}
		written(string(p), d)
	}
	ml, err := SynthesizeMovieLens(DefaultMovieLens(0.02, 5))
	if err != nil {
		t.Fatal(err)
	}
	written("movielens", ml)

	long := bytes.Repeat([]byte("x"), 1<<22+1)
	for _, c := range []struct{ name, text string }{
		{"empty", ""},
		{"comments and blanks", "# head\n\n   # indented comment\n\t#tab comment\nu i 2\n\n#u j 3\n"},
		{"crlf and tabs", "u\ti\t2\r\nu j\r\n\tv  i 3 \r\n"},
		{"vertical tab and form feed", "u\vi\f4\n"},
		{"nel and nbsp", "u\u0085i 2\nv i 3\n w i\n"},
		{"non-ascii tokens", "ünï cödé 2\nユーザー 品目\nünï 品目 1.5\n"},
		{"invalid utf-8", "u\xffv i\n\xfe j 2\n"},
		{"nul bytes", "\x00\x01 \x02\n"},
		{"sign and zero spellings", "7 1\n07 1\n+7 1\n7 01\n0 0\n00 0\n-0 1\n"},
		{"numbers past 2^32", "4294967295 1\n4294967296 1\n99999999999 2\n4294967296 3\n"},
		{"numbers far above the count", "3000000000 1\n0 2000000\n2000000 0\n5 5\n2000000 1\n3000000000 2000000\n"},
		{"dense after spill", "1500 0\n" + ascendingUsers(1500) + "1500 1\n"},
		{"rated and unrated mixed", "u i\nu j 2.5\nv i\nv k 0\n"},
		{"unrated only", "u i\nv j\nu j\n"},
		{"integer duplicates", "u i 2\nu i 3\nv i 1\nu i 4\nu j 5\n"},
		{"unrated duplicates", "u i\nu i\nu j 2\n"},
		{"special ratings", "u i -0\nv i 1e300\nx i NaN\ny i -Inf\nz i 0x1p-2\nw i -0\nw i -0\n"},
		{"rating out of range", "u i 1\nu j 1e400\n"},
		{"rating with underscore", "u i 1_0\n"},
		{"fifteen and sixteen digits", "u i 999999999999999\nv i 9999999999999999\nw i 000000000000007\n"},
		{"extra fields", "u i 2 trailing fields\n"},
		{"one field", "u i\njustone\n"},
		{"one field after spaces", "   lonely   \n"},
		{"bad rating", "u i 2\nu j two\n"},
		{"bad rating non-ascii", "u i 2\nu j ２\n"},
		{"long line", "u i\n" + string(long) + "\n"},
		{"no final newline", "u i 2"},
	} {
		inputs = append(inputs, input{c.name, []byte(c.text)})
	}

	for _, in := range inputs {
		for _, opts := range []LoadOptions{
			{Name: "n", BuildItemProfiles: true},
			{Name: "n"},
			{Name: "n", Binary: true, BuildItemProfiles: true},
		} {
			if d := diffLoad(in.text, opts); d != "" {
				t.Errorf("%s %+v: %s", in.name, opts, d)
			}
		}
	}
}

// ascendingUsers lists users 0..n-1 rating item 0, one line each.
func ascendingUsers(n int) string {
	var b strings.Builder
	for u := 0; u < n; u++ {
		fmt.Fprintf(&b, "%d 0\n", u)
	}
	return b.String()
}

// TestLoadSumsDuplicatesInFileOrder pins the order duplicate pairs sum
// in: a 20-line profile repeats one pair with ratings whose sum depends
// on the order, and the total must be ((0 + a) + b) + c in file order.
func TestLoadSumsDuplicatesInFileOrder(t *testing.T) {
	a, b, c := 0.1, 0.2, 0.3
	var in strings.Builder
	for i := 0; i < 17; i++ {
		fmt.Fprintf(&in, "u filler%d 0.5\n", i)
	}
	fmt.Fprintf(&in, "u dup %g\n", a)
	fmt.Fprintf(&in, "u dup %g\n", b)
	fmt.Fprintf(&in, "u dup %g\n", c)
	d, err := Load(strings.NewReader(in.String()), LoadOptions{})
	if err != nil {
		t.Fatal(err)
	}
	want := ((0 + a) + b) + c
	if reversed := ((0 + c) + b) + a; want == reversed {
		t.Fatalf("test ratings must sum differently in another order")
	}
	if got := d.Users[0].WeightOf(17); math.Float64bits(got) != math.Float64bits(want) {
		t.Fatalf("duplicate sum = %v, want %v (file order)", got, want)
	}
}
