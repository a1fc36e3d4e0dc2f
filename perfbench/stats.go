package main

import (
	"math"
	"slices"
	"strconv"
	"time"

	"sfcacd/internal/obs"
)

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is not modified. It returns 0 for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo+1 >= len(s) || s[lo] == s[lo+1] {
		return s[lo]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// exactCounters are the obs counters a run records as exact counts.
// They depend only on the seed and the work done, so two runs of the
// same seed reproduce them bit for bit and a later change can cite them
// as counts rather than times.
var exactCounters = []string{
	"acd.events",
	"commmat.events",
	"commmat.pairs",
	"commmat.fused_contractions",
	"topology.distance.analytic",
	"incr.retracted",
	"incr.readded",
}

// counterSet snapshots the named obs counters.
func counterSet(names []string) map[string]uint64 {
	out := make(map[string]uint64, len(names))
	for _, n := range names {
		out[n] = obs.GetCounter(n).Value()
	}
	return out
}

// counterDelta returns the named counters' growth since before.
func counterDelta(names []string, before map[string]uint64) map[string]uint64 {
	now := counterSet(names)
	for n, v := range before {
		now[n] -= v
	}
	return now
}

// setCounters reports exact counter deltas as count metrics.
func setCounters(res *result, delta map[string]uint64) {
	for _, n := range exactCounters {
		res.set(n, float64(delta[n]), "count")
	}
}

// noteCounters prints exact counter deltas in a fixed order.
func noteCounters(res *result, what string, delta map[string]uint64) {
	line := "exact counters (" + what + "):"
	for _, n := range exactCounters {
		line += " " + n + "=" + strconv.FormatUint(delta[n], 10)
	}
	res.note("%s", line)
}
