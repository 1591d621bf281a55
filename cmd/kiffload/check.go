package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"slices"
	"sync"

	"kiff"
	"kiff/internal/knngraph"
)

// model is what the server must hold: the fixture plus every
// acknowledged mutation. The checkers record acknowledgments into it
// concurrently; finalDataset replays them once traffic has stopped.
type model struct {
	fixture  *kiff.Dataset
	ops      []Op
	maxUsers uint32 // fixture users + every insert of the stream

	mu       sync.Mutex
	inserted map[uint32]int // acknowledged new user ID → op index
	rated    []int          // op indexes of acknowledged ratings
}

func newModel(fixture *kiff.Dataset, ops []Op) *model {
	m := &model{fixture: fixture, ops: ops, maxUsers: uint32(fixture.NumUsers()), inserted: map[uint32]int{}}
	for i := range ops {
		if ops[i].Kind == opInsert {
			m.maxUsers++
		}
	}
	return m
}

type neighborJSON struct {
	ID  uint32  `json:"id"`
	Sim float64 `json:"sim"`
}

type itemJSON struct {
	ID    uint32  `json:"id"`
	Score float64 `json:"score"`
}

// check validates one response against the op that caused it: status,
// shape, ordering, result count and ID ranges, and the uniqueness of new
// user IDs. Safe for concurrent use.
func (m *model) check(i int, status int, body []byte) error {
	op := &m.ops[i]
	want := http.StatusOK
	if op.Kind == opInsert {
		want = http.StatusCreated
	}
	if status != want {
		return fmt.Errorf("status %d, want %d: %.200s", status, want, body)
	}
	switch op.Kind {
	case opQueryUsers:
		var r struct{ Results []neighborJSON }
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		return checkNeighbors(r.Results, op.K(), m.maxUsers, -1)
	case opQueryItems:
		var r struct{ Results []itemJSON }
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		nb := make([]neighborJSON, len(r.Results))
		for j, it := range r.Results {
			nb[j] = neighborJSON{it.ID, it.Score}
		}
		return checkNeighbors(nb, op.K(), uint32(m.fixture.NumItems()), -1)
	case opNeighbors:
		var r struct {
			User      uint32
			Neighbors []neighborJSON
		}
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.User != op.User {
			return fmt.Errorf("neighbors of user %d, asked for %d", r.User, op.User)
		}
		return checkNeighbors(r.Neighbors, serverK, m.maxUsers, int64(op.User))
	case opInsert:
		var r struct{ ID *uint32 }
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.ID == nil || *r.ID < uint32(m.fixture.NumUsers()) || *r.ID >= m.maxUsers {
			return fmt.Errorf("new user id out of range: %s", body)
		}
		m.mu.Lock()
		defer m.mu.Unlock()
		if j, dup := m.inserted[*r.ID]; dup {
			return fmt.Errorf("new user id %d handed out twice (ops %d and %d)", *r.ID, j, i)
		}
		m.inserted[*r.ID] = i
	case opRating:
		var r struct{ Applied int }
		if err := json.Unmarshal(body, &r); err != nil {
			return err
		}
		if r.Applied != 1 {
			return fmt.Errorf("applied %d ratings, sent 1", r.Applied)
		}
		m.mu.Lock()
		defer m.mu.Unlock()
		m.rated = append(m.rated, i)
	}
	return nil
}

// checkNeighbors requires at most k results, IDs below limit and never
// self, sorted by similarity descending then ID ascending.
func checkNeighbors(nbs []neighborJSON, k int, limit uint32, self int64) error {
	if len(nbs) > k {
		return fmt.Errorf("%d results, asked for %d", len(nbs), k)
	}
	for j, nb := range nbs {
		if nb.ID >= limit || int64(nb.ID) == self {
			return fmt.Errorf("result id %d out of range (limit %d, self %d)", nb.ID, limit, self)
		}
		if j > 0 {
			p := nbs[j-1]
			if p.Sim < nb.Sim || (p.Sim == nb.Sim && p.ID >= nb.ID) {
				return fmt.Errorf("results out of order at %d: %v then %v", j, p, nb)
			}
		}
	}
	return nil
}

// finalDataset is the fixture with every acknowledged mutation applied.
// New users must hold exactly the IDs following the fixture's.
func (m *model) finalDataset() (*kiff.Dataset, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	profiles := make([]kiff.Profile, m.fixture.NumUsers())
	for u := range profiles {
		profiles[u] = m.fixture.User(uint32(u)).Clone()
	}
	ds, err := kiff.NewDataset("final", profiles, m.fixture.NumItems())
	if err != nil {
		return nil, err
	}
	for _, i := range m.rated {
		op := &m.ops[i]
		if err := ds.AddRating(op.User, op.Item, op.Rating); err != nil {
			return nil, err
		}
	}
	for id := uint32(m.fixture.NumUsers()); len(m.inserted) > 0; id++ {
		i, ok := m.inserted[id]
		if !ok {
			return nil, fmt.Errorf("new user ids are not contiguous: %d missing", id)
		}
		if _, err := ds.AddUser(m.ops[i].Profile); err != nil {
			return nil, err
		}
		delete(m.inserted, id)
	}
	return ds, nil
}

// probe compares the server's exact /query answers with an in-process
// exact index over the fixture for n query profiles of the workload.
// IDs and similarities must match bit for bit.
func probe(c *httpConn, w Workload, fixture *kiff.Dataset, seed int64, n int) (sent int, err error) {
	ix, err := kiff.NewIndex(fixture, kiff.Options{})
	if err != nil {
		return 0, err
	}
	s := newOpStream(w, fixture, seed^0x5eed)
	for sent < n {
		p := s.queryProfile()
		want, err := ix.Query(p, queryUserK, -1)
		if err != nil {
			return sent, err
		}
		status, body, err := c.Send(request("POST", "/query",
			fmt.Sprintf(`{"profile":%s,"k":%d,"binary":%t}`, profileJSON(p), queryUserK, fixture.Binary())))
		sent++
		if err != nil {
			return sent, err
		}
		if status != http.StatusOK {
			return sent, fmt.Errorf("probe /query: status %d: %s", status, body)
		}
		var r struct{ Results []neighborJSON }
		if err := json.Unmarshal(body, &r); err != nil {
			return sent, err
		}
		if len(r.Results) != len(want) {
			return sent, fmt.Errorf("probe /query: %d results, exact index has %d", len(r.Results), len(want))
		}
		for j, nb := range r.Results {
			if nb.ID != want[j].ID || nb.Sim != want[j].Sim {
				return sent, fmt.Errorf("probe /query result %d: served %v, exact %v", j, nb, want[j])
			}
		}
	}
	return sent, nil
}

// graphRecall samples n users of the final dataset, fetches their served
// neighbors, and scores them against the exact top-k with the paper's
// tie-aware recall (Eq. 3/4).
func graphRecall(c *httpConn, final *kiff.Dataset, k, n int, seed int64) (recall float64, sent int, err error) {
	ix, err := kiff.NewIndex(final, kiff.Options{})
	if err != nil {
		return 0, 0, err
	}
	rng := rand.New(rand.NewSource(seed*31 + 7))
	n = min(n, final.NumUsers())
	users := make([]uint32, 0, n)
	for _, u := range rng.Perm(final.NumUsers())[:n] {
		users = append(users, uint32(u))
	}
	slices.Sort(users)
	lists := make([][]kiff.Neighbor, n)
	served := make([][]kiff.Neighbor, n)
	for i, u := range users {
		exact, err := ix.Query(final.User(u), k+1, -1)
		if err != nil {
			return 0, sent, err
		}
		exact = slices.DeleteFunc(exact, func(nb kiff.Neighbor) bool { return nb.ID == u })
		lists[i] = exact[:min(k, len(exact))]
		body, err := c.get(fmt.Sprintf("/neighbors/%d", u))
		sent++
		if err != nil {
			return 0, sent, err
		}
		var r struct{ Neighbors []neighborJSON }
		if err := json.Unmarshal(body, &r); err != nil {
			return 0, sent, err
		}
		for _, nb := range r.Neighbors {
			served[i] = append(served[i], kiff.Neighbor{ID: nb.ID, Sim: nb.Sim})
		}
	}
	e := knngraph.BuildExact(k, users, lists)
	sum := 0.0
	for i := range users {
		sum += e.RecallUser(i, served[i])
	}
	return sum / float64(n), sent, nil
}
