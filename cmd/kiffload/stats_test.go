package main

import (
	"testing"
	"time"
)

func TestPercentileIsNearestRank(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {99.9, 100}, {100, 100}, {0.5, 1}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if got := percentile([]float64{7}, 99); got != 7 {
		t.Errorf("p99 of one sample = %v", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of no samples = %v", got)
	}
}

func TestHighestSupportedPercentileKeepsTenSamplesBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{{0, 0}, {19, 0}, {20, 50}, {99, 50}, {100, 90}, {199, 90}, {200, 95}, {999, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}} {
		if got := highestSupported(c.n); got != c.want {
			t.Errorf("highestSupported(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestTailIsP99OrHighestSupported(t *testing.T) {
	ramp := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	for _, c := range []struct {
		n    int
		want float64
	}{{10, 5}, {600, 570}, {5000, 4950}} {
		if got := tail(ramp(c.n)); got != c.want {
			t.Errorf("tail of 1..%d = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestMaxRPSIsHighestStepMeetingSLO(t *testing.T) {
	ok := func(rate float64) stepOutcome {
		return stepOutcome{Rate: rate, Seconds: 10, Attempted: int(rate * 10), Completed: int(rate*10) - 1,
			ReadTail: 5 * time.Millisecond, WriteTail: 20 * time.Millisecond, LagTail: time.Millisecond}
	}
	low, nom, high := ok(100), ok(200), ok(400)
	if got, want := maxRPS([]stepOutcome{low, nom, high}, defaultSLO), high.goodput(); got != want {
		t.Fatalf("every step meets: max_rps %v, want %v", got, want)
	}

	slowRead := high
	slowRead.ReadTail = 26 * time.Millisecond
	slowWrite := high
	slowWrite.WriteTail = 101 * time.Millisecond
	errors := high
	errors.Failed = 5 // 5/4000 > 0.1%
	backlog := high
	backlog.LagTail = 2 * time.Second // requests left unsent count their wait
	for name, top := range map[string]stepOutcome{"read tail": slowRead, "write tail": slowWrite, "error rate": errors, "backlog": backlog} {
		if top.meets(defaultSLO) {
			t.Errorf("%s: step meets the SLO", name)
		}
		if got, want := maxRPS([]stepOutcome{top, nom, low}, defaultSLO), nom.goodput(); got != want {
			t.Errorf("%s: max_rps %v, want the nominal step's %v", name, got, want)
		}
	}

	justErrors := high
	justErrors.Failed = 4 // exactly 0.1%
	if !justErrors.meets(defaultSLO) {
		t.Error("an error rate of exactly 0.1% misses the SLO")
	}
	if got := maxRPS([]stepOutcome{backlog, {Rate: 50}}, defaultSLO); got != 0 {
		t.Errorf("no step meets: max_rps %v, want 0", got)
	}
}
