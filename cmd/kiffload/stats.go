package main

import (
	"math"
	"slices"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile
// for it to count as measured rather than extrapolated.
const minBeyond = 10

// percentile returns the nearest-rank p-th percentile (0 < p ≤ 100) of
// xs, which it sorts in place. It returns 0 for an empty sample.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	slices.Sort(xs)
	rank := int(math.Ceil(p / 100 * float64(len(xs))))
	rank = max(1, min(rank, len(xs)))
	return xs[rank-1]
}

// supportedPercentiles are the percentiles kiffload reports, highest last.
var supportedPercentiles = []float64{50, 90, 95, 99, 99.9}

// highestSupported returns the highest reported percentile that has at
// least minBeyond samples beyond it out of n, or 0 when even the median
// has too few.
func highestSupported(n int) float64 {
	best := 0.0
	for _, p := range supportedPercentiles {
		if float64(n)*(1-p/100) >= minBeyond-1e-9 {
			best = p
		}
	}
	return best
}

// msDuration converts milliseconds to a Duration.
func msDuration(ms float64) time.Duration { return time.Duration(ms * float64(time.Millisecond)) }

// median is the 50th nearest-rank percentile of a copy of xs.
func median(xs []float64) float64 {
	return percentile(slices.Clone(xs), 50)
}

// tail is the percentile the SLO limits: p99, or the highest percentile
// the sample supports when it holds fewer than 1,000 values.
func tail(xs []float64) float64 {
	return percentile(xs, max(50, min(99, highestSupported(len(xs)))))
}

// SLO is the service-level objective a ladder step must meet. The
// latency limits apply to each class's tail.
type SLO struct {
	ReadTail    time.Duration // /query and /neighbors
	WriteTail   time.Duration // /users and /ratings acknowledgments
	SendLagTail time.Duration // generator lateness; bounds the backlog
	ErrorRate   float64       // failed / attempted
}

// defaultSLO is the objective every workload is judged against.
var defaultSLO = SLO{
	ReadTail:    25 * time.Millisecond,
	WriteTail:   100 * time.Millisecond,
	SendLagTail: 25 * time.Millisecond,
	ErrorRate:   0.001,
}

// stepOutcome summarises one ladder step for the SLO decision.
type stepOutcome struct {
	Rate      float64 // scheduled requests per second
	Seconds   float64 // scheduled length of the step
	Attempted int     // requests scheduled in the step
	Completed int     // requests answered correctly
	Failed    int     // requests answered wrongly or not at all
	Unsent    int     // requests still unsent when the step ended
	ReadTail  time.Duration
	WriteTail time.Duration
	LagTail   time.Duration
}

// meets reports whether the step met the SLO. A growing backlog shows
// in LagTail, which counts each request never sent as late by at least
// the time from its due time to the end of the step.
func (o stepOutcome) meets(slo SLO) bool {
	if o.Attempted == 0 {
		return false
	}
	if float64(o.Failed) > slo.ErrorRate*float64(o.Attempted) {
		return false
	}
	return o.ReadTail <= slo.ReadTail && o.WriteTail <= slo.WriteTail && o.LagTail <= slo.SendLagTail
}

// goodput is the rate of correctly answered requests over the step.
func (o stepOutcome) goodput() float64 {
	if o.Seconds <= 0 {
		return 0
	}
	return float64(o.Completed) / o.Seconds
}

// maxRPS returns the goodput of the highest-rate step that met the SLO,
// or 0 when none did. Steps may be given in any order.
func maxRPS(steps []stepOutcome, slo SLO) float64 {
	best, bestRate := 0.0, -1.0
	for _, s := range steps {
		if s.meets(slo) && s.Rate > bestRate {
			best, bestRate = s.goodput(), s.Rate
		}
	}
	return best
}
