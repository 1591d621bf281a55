package main

import (
	"strconv"
	"sync"
	"testing"
)

// fakeClock is virtual time: sleeping jumps forward, and the fake
// server advances it by each request's service time.
type fakeClock struct {
	mu sync.Mutex
	t  float64
}

func (c *fakeClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) SleepUntil(t float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = max(c.t, t)
}

func (c *fakeClock) advance(d float64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t += d
}

// stallingServer answers every request in 0.1 ms, except one that
// stalls for 50 ms.
type stallingServer struct {
	clk   *fakeClock
	stall int
}

func (s stallingServer) Send(req []byte) (int, []byte, error) {
	d := 0.0001
	if i, _ := strconv.Atoi(string(req)); i == s.stall {
		d = 0.05
	}
	s.clk.advance(d)
	return 200, nil, nil
}

// fakeSchedule is n ops due every millisecond in one phase ending at end.
func fakeSchedule(n int, end float64) ([]Op, schedule) {
	ops := make([]Op, n)
	s := schedule{Phases: []phase{{Name: "nominal", Rate: 1000, End: end, Len: n, Recorded: true}}}
	for i := range ops {
		ops[i].Req = []byte(strconv.Itoa(i))
		s.Due = append(s.Due, float64(i)/1000)
		s.Phase = append(s.Phase, 0)
	}
	return ops, s
}

func TestDriveChargesStallToQueuedRequests(t *testing.T) {
	clk := &fakeClock{}
	ops, s := fakeSchedule(20, 1)
	res := drive(ops, s, clk, []sender{stallingServer{clk, 5}}, func(int, int, []byte) error { return nil })
	for i, r := range res {
		lat, service := r.Latency(s.Due[i]), r.DoneAt-r.SentAt
		switch {
		case !r.Sent || !r.OK:
			t.Fatalf("op %d: %+v", i, r)
		case i < 5:
			if lat > 0.001 {
				t.Errorf("op %d before the stall: latency %v", i, lat)
			}
		case i == 5:
			if lat < 0.05 {
				t.Errorf("stalled op: latency %v", lat)
			}
		default:
			// Queued behind the stall: the server answered in 0.1 ms,
			// but the op waited since its due time.
			if service > 0.0002 || lat < 0.03 || r.Lag(s.Due[i]) < 0.03 {
				t.Errorf("op %d queued behind the stall: latency %v, lag %v, service %v", i, lat, r.Lag(s.Due[i]), service)
			}
		}
	}
}

func TestDriveDropsOpsStillUnsentWhenTheirPhaseEnds(t *testing.T) {
	clk := &fakeClock{}
	ops, s := fakeSchedule(20, 0.01)
	res := drive(ops, s, clk, []sender{stallingServer{clk, 5}}, func(int, int, []byte) error { return nil })
	for i, r := range res {
		if r.Sent != (i <= 5) {
			t.Errorf("op %d: sent=%v; only ops up to the stall go out before the phase ends", i, r.Sent)
		}
	}
}
