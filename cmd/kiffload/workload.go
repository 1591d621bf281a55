package main

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"

	"kiff"
)

// opKind is one request type of the traffic mix.
type opKind uint8

const (
	opQueryUsers opKind = iota // POST /query, want=users
	opQueryItems               // POST /query, want=items
	opNeighbors                // GET /neighbors/{u}
	opInsert                   // POST /users
	opRating                   // POST /ratings
	numOpKinds
)

var opNames = [numOpKinds]string{"query-users", "query-items", "neighbors", "insert", "rating"}

func (k opKind) String() string { return opNames[k] }

// isWrite reports whether the op mutates the server (its latency is a
// write acknowledgment).
func (k opKind) isWrite() bool { return k == opInsert || k == opRating }

// isQuery reports whether the op is a POST /query.
func (k opKind) isQuery() bool { return k == opQueryUsers || k == opQueryItems }

// Query sizes: users queries ask for the served graph's k, item
// recommendations for fewer.
const (
	serverK    = 20
	queryUserK = 20
	queryItemK = 10
)

// Workload is one traffic mix against one server configuration.
type Workload struct {
	Name   string
	Why    string
	Preset string  // kiffgen preset of the fixture
	Scale  float64 // kiffgen scale of the fixture
	Shards int     // -shards; 0 serves unsharded
	WAL    bool    // -wal DIR -wal-sync always
	// Mix is each op kind's share of the stream; shares sum to 1.
	Mix [numOpKinds]float64
	// Zipf draws query and neighbor users zipf(1.1) over the users
	// ranked by how typical their profile size is, so popular profiles
	// repeat; otherwise uniformly.
	Zipf bool
	// Drop is the share of a query profile's items left out, so that
	// query bodies rarely repeat.
	Drop float64
	// Rates are the ladder's low, nominal and high request rates (1/s),
	// calibrated so that the nominal step meets the SLO with margin and
	// the high step misses it.
	Rates [3]float64
}

// workloads are the benchmark's traffic mixes, in run order.
var workloads = []Workload{
	{
		Name:   "read-dense",
		Why:    "dense item profiles give large candidate sets, so the query index does most of the work; writes are a trickle",
		Preset: "wikipedia", Scale: 1,
		Mix:   mix(opQueryUsers, 0.45, opQueryItems, 0.20, opNeighbors, 0.25, opInsert, 0.05, opRating, 0.05),
		Zipf:  true,
		Rates: [3]float64{200, 400, 8000},
	},
	{
		Name:   "mixed-sharded",
		Why:    "sparse item profiles give small candidate sets, so reads pay HTTP, JSON and the 4-shard fan-out; writes share the pool",
		Preset: "gowalla", Scale: 0.1, Shards: 4,
		Mix:   mix(opQueryUsers, 0.55, opNeighbors, 0.30, opInsert, 0.10, opRating, 0.05),
		Drop:  0.2,
		Rates: [3]float64{200, 400, 8000},
	},
	{
		Name:   "write-wal",
		Why:    "write acks pay the queue, incremental maintenance, an fsynced WAL append and the copy-on-write publish",
		Preset: "gowalla", Scale: 0.1, WAL: true,
		Mix:   mix(opQueryUsers, 0.10, opNeighbors, 0.25, opInsert, 0.35, opRating, 0.30),
		Drop:  0.2,
		Rates: [3]float64{150, 300, 2000},
	},
}

func mix(pairs ...any) [numOpKinds]float64 {
	var m [numOpKinds]float64
	for i := 0; i < len(pairs); i += 2 {
		m[pairs[i].(opKind)] = pairs[i+1].(float64)
	}
	return m
}

func workloadByName(name string) (Workload, error) {
	for _, w := range workloads {
		if w.Name == name {
			return w, nil
		}
	}
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return Workload{}, fmt.Errorf("unknown workload %q (have %v)", name, names)
}

// Op is one request of the stream, with its HTTP request pre-encoded so
// that sending it costs the generator no encoding work.
type Op struct {
	Kind    opKind
	User    uint32       // neighbors target, or rated user
	Item    uint32       // rated item
	Rating  float64      // rating value
	Profile kiff.Profile // query or inserted profile
	Req     []byte       // the full HTTP/1.1 request
}

// K is the result size the op asks for.
func (o *Op) K() int {
	if o.Kind == opQueryItems {
		return queryItemK
	}
	return queryUserK
}

// opStream generates the op stream of a workload over a fixture. It is a
// pure function of its arguments, and each prefix of a longer stream is
// the shorter stream.
type opStream struct {
	w       Workload
	ds      *kiff.Dataset
	binary  bool
	rng     *rand.Rand
	zipf    *rand.Zipf
	popular []uint32 // zipf rank → user
	rated   map[[2]uint32]bool
}

func newOpStream(w Workload, ds *kiff.Dataset, seed int64) *opStream {
	s := &opStream{
		w:      w,
		ds:     ds,
		binary: ds.Binary(),
		rng:    rand.New(rand.NewSource(seed*7919 + 17)),
		rated:  make(map[[2]uint32]bool),
	}
	if w.Zipf {
		// The most popular users are those of the most typical profile
		// size. A handful of head users carries most of the traffic, so
		// ranking them this way gives the head the same cost whatever the
		// seed; a seeded random ranking makes the run's median latency
		// depend on which profiles the seed put at the head.
		s.popular = make([]uint32, ds.NumUsers())
		sizes := make([]int, ds.NumUsers())
		for u := range s.popular {
			s.popular[u] = uint32(u)
			sizes[u] = ds.User(uint32(u)).Len()
		}
		mid := slices.Clone(sizes)
		slices.Sort(mid)
		typical := mid[len(mid)/2]
		dist := func(u uint32) int { return max(sizes[u]-typical, typical-sizes[u]) }
		slices.SortStableFunc(s.popular, func(a, b uint32) int { return dist(a) - dist(b) })
		s.zipf = rand.NewZipf(s.rng, 1.1, 1, uint64(ds.NumUsers()-1))
	}
	return s
}

// generateOps returns the first n ops of the workload's stream.
func generateOps(w Workload, ds *kiff.Dataset, seed int64, n int) []Op {
	s := newOpStream(w, ds, seed)
	ops := make([]Op, n)
	for i := range ops {
		ops[i] = s.next()
	}
	return ops
}

func (s *opStream) next() Op {
	x := s.rng.Float64()
	kind := opKind(0)
	for k := opKind(0); k < numOpKinds; k++ {
		kind = k
		if x < s.w.Mix[k] {
			break
		}
		x -= s.w.Mix[k]
	}
	for s.w.Mix[kind] == 0 { // rounding past the last share
		kind--
	}
	op := Op{Kind: kind}
	switch kind {
	case opQueryUsers, opQueryItems:
		op.Profile = s.queryProfile()
		want := ""
		if kind == opQueryItems {
			want = `,"want":"items"`
		}
		op.Req = request("POST", "/query", fmt.Sprintf(`{"profile":%s,"k":%d,"binary":%t%s}`,
			profileJSON(op.Profile), op.K(), s.binary, want))
	case opNeighbors:
		op.User = s.readUser()
		op.Req = request("GET", "/neighbors/"+strconv.FormatUint(uint64(op.User), 10), "")
	case opInsert:
		op.Profile = s.perturbed()
		op.Req = request("POST", "/users", fmt.Sprintf(`{"profile":%s,"binary":%t}`, profileJSON(op.Profile), s.binary))
	case opRating:
		op.User, op.Item, op.Rating = s.newRating()
		op.Req = request("POST", "/ratings", fmt.Sprintf(`{"user":%d,"item":%d,"rating":%s}`,
			op.User, op.Item, strconv.FormatFloat(op.Rating, 'g', -1, 64)))
	}
	return op
}

// readUser draws the target of a read: zipfian or uniform over the
// fixture's users.
func (s *opStream) readUser() uint32 {
	if s.zipf != nil {
		return s.popular[s.zipf.Uint64()]
	}
	return uint32(s.rng.Intn(s.ds.NumUsers()))
}

// maxProfileItems caps query and inserted profiles. The synthetic
// gowalla fixtures hold a few users with tens of thousands of items;
// one exact query over such a profile takes most of a second on both
// CPUs, so whether the seed draws one would decide the run's tail.
const maxProfileItems = 64

// queryProfile is a query's profile: a drawn user's profile without the
// workload's drop share.
func (s *opStream) queryProfile() kiff.Profile {
	return s.subset(s.ds.User(s.readUser()), s.w.Drop)
}

// subset returns a copy of p without a share of its items, keeping at
// least one, and at most maxProfileItems of those left, drawn at random.
func (s *opStream) subset(p kiff.Profile, drop float64) kiff.Profile {
	var keep []int
	for i := range p.IDs {
		if drop == 0 || s.rng.Float64() >= drop {
			keep = append(keep, i)
		}
	}
	if len(keep) == 0 && p.Len() > 0 {
		keep = append(keep, s.rng.Intn(p.Len()))
	}
	if len(keep) > maxProfileItems {
		s.rng.Shuffle(len(keep), func(a, b int) { keep[a], keep[b] = keep[b], keep[a] })
		keep = keep[:maxProfileItems]
		slices.Sort(keep)
	}
	out := kiff.Profile{IDs: make([]uint32, len(keep))}
	if !p.IsBinary() {
		out.Weights = make([]float64, len(keep))
	}
	for j, i := range keep {
		out.IDs[j] = p.IDs[i]
		if out.Weights != nil {
			out.Weights[j] = p.Weights[i]
		}
	}
	return out
}

// perturbed is a new user's profile: a uniformly drawn existing profile
// with a fifth of its items dropped and two random items added.
func (s *opStream) perturbed() kiff.Profile {
	base := s.subset(s.ds.User(uint32(s.rng.Intn(s.ds.NumUsers()))), 0.2)
	m := make(map[uint32]float64, base.Len()+2)
	for i, id := range base.IDs {
		m[id] = base.Weight(i)
	}
	for added := 0; added < 2; {
		id := uint32(s.rng.Intn(s.ds.NumItems()))
		if _, ok := m[id]; !ok {
			m[id] = s.ratingValue()
			added++
		}
	}
	return kiff.ProfileFromMap(m, s.binary)
}

// newRating draws a (user, item) pair not in the user's fixture profile
// and not rated earlier in the stream, with a rating value. Rated users
// hold at most maxProfileItems items, for the reason queries are capped:
// rebuilding the neighborhood of one of the heaviest users after a
// rating stalls the writer for most of a second.
func (s *opStream) newRating() (uint32, uint32, float64) {
	for {
		u := uint32(s.rng.Intn(s.ds.NumUsers()))
		it := uint32(s.rng.Intn(s.ds.NumItems()))
		key := [2]uint32{u, it}
		if p := s.ds.User(u); p.Len() > maxProfileItems || p.Contains(it) || s.rated[key] {
			continue
		}
		s.rated[key] = true
		return u, it, s.ratingValue()
	}
}

func (s *opStream) ratingValue() float64 {
	if s.binary {
		return 1
	}
	return float64(1 + s.rng.Intn(8))
}

// profileJSON encodes a profile as the wire's item→rating object, keys
// ascending.
func profileJSON(p kiff.Profile) string {
	b := make([]byte, 0, 16*p.Len()+2)
	b = append(b, '{')
	for i, id := range p.IDs {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, '"')
		b = strconv.AppendUint(b, uint64(id), 10)
		b = append(b, '"', ':')
		b = strconv.AppendFloat(b, p.Weight(i), 'g', -1, 64)
	}
	return string(append(b, '}'))
}

// request encodes one HTTP/1.1 keep-alive request.
func request(method, path, body string) []byte {
	h := method + " " + path + " HTTP/1.1\r\nHost: kiffserve\r\n"
	if body != "" {
		h += "Content-Type: application/json\r\nContent-Length: " + strconv.Itoa(len(body)) + "\r\n"
	}
	return []byte(h + "\r\n" + body)
}

// schedule is the open-loop arrival plan: every op has a due time, and
// belongs to the phase whose window holds it.
type schedule struct {
	Due    []float64 // seconds from the start of the run
	Phase  []int
	Phases []phase
}

// phase is one constant-rate window of the schedule.
type phase struct {
	Name       string
	Rate       float64
	Start, End float64 // seconds from the start of the run
	First, Len int     // its ops: [First, First+Len)
	Recorded   bool    // warm-up is not recorded
}

// ladder plans the run: a warm-up at the nominal rate, then the low,
// nominal and high steps. The nominal step, which the latency metrics
// come from, gets three fifths of the measured time.
func ladder(rates [3]float64, warmup, seconds float64) schedule {
	spans := []struct {
		name string
		rate float64
		secs float64
	}{
		{"warmup", rates[1], warmup},
		{"low", rates[0], seconds / 5},
		{"nominal", rates[1], seconds * 3 / 5},
		{"high", rates[2], seconds / 5},
	}
	var s schedule
	t := 0.0
	for i, sp := range spans {
		ph := phase{Name: sp.name, Rate: sp.rate, Start: t, End: t + sp.secs, First: len(s.Due), Recorded: i > 0}
		n := int(sp.rate * sp.secs)
		for j := 0; j < n; j++ {
			s.Due = append(s.Due, t+float64(j)/sp.rate)
			s.Phase = append(s.Phase, i)
		}
		ph.Len = n
		s.Phases = append(s.Phases, ph)
		t += sp.secs
	}
	return s
}

// phaseIndex returns the index of the named phase.
func (s schedule) phaseIndex(name string) int {
	return slices.IndexFunc(s.Phases, func(p phase) bool { return p.Name == name })
}
