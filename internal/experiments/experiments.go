// Package experiments contains one parameterized runner per table and
// figure of the paper's evaluation (§V–VI), plus the §VII primitive
// sweep and the contention extension. Each runner is deterministic
// given its Params (seeded sampling, fixed trial schedule) and returns
// structured results that cmd/acdbench and bench_test.go render.
//
// Paper-scale presets reproduce the published parameter settings;
// tests use scaled-down Params so the whole suite stays fast.
package experiments

import (
	"fmt"

	"sfcacd/internal/dist"
	"sfcacd/internal/geom"
	"sfcacd/internal/obs"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

// Params are the shared experiment knobs.
type Params struct {
	// Particles is the input size n.
	Particles int
	// Order is the spatial resolution order k (grid side 2^k).
	Order uint
	// ProcOrder fixes the processor count p = 4^ProcOrder (the side of
	// the square mesh/torus is 2^ProcOrder).
	ProcOrder uint
	// Radius is the near-field neighborhood radius r.
	Radius int
	// Trials is the number of independent trials averaged.
	Trials int
	// Seed drives all sampling; equal seeds replay exactly.
	Seed uint64
	// Workers caps the worker goroutines of the accumulation and
	// matrix-build passes; 0 means GOMAXPROCS. Results are identical
	// for any worker count; the knob exists to pin parallelism for
	// benchmarking and is recorded in run manifests.
	Workers int
	// NFIEngine is a retired knob that once selected the neighbor
	// engine. It is still decoded, so requests that carry it keep
	// working, and it is ignored: the key-space index is the only
	// engine. Validate accepts only the old spellings ("", "tree",
	// "keys", "auto"), and it is excluded from CanonicalKey.
	NFIEngine string
	// Distribution selects the particle sampling distribution by name
	// (dist.ByName); empty means uniform. Unlike the cost-only knobs it
	// changes results, so non-uniform values join CanonicalKey (the
	// uniform default is omitted there, keeping every previously cached
	// key stable).
	Distribution string
	// IncrMode pins the maintenance mechanism of the incremental
	// time-stepped experiments: "" or "incr" (delta maintenance with
	// policy-driven rebuild fallback) or "rebuild" (full rebuild every
	// tick). The two mechanisms are bit-identical by construction (the
	// cross-mechanism differential oracle CI enforces), so like Workers
	// the knob only moves cost and is excluded from CanonicalKey.
	IncrMode string
}

// incrModes lists the accepted IncrMode values.
var incrModes = map[string]bool{"": true, "incr": true, "rebuild": true}

// legacyEngines lists the NFIEngine spellings old requests may carry.
var legacyEngines = map[string]bool{"": true, "tree": true, "keys": true, "auto": true}

// sampler resolves the Distribution name, panicking on values Validate
// would have rejected. Aliases normalize to the canonical singletons,
// so "exp" and "exponential" sample (and cache) identically.
func (p Params) sampler() dist.Sampler {
	if p.Distribution == "" {
		return dist.Uniform
	}
	s, err := dist.ByName(p.Distribution)
	if err != nil {
		panic(err)
	}
	return s
}

// P returns the processor count 4^ProcOrder.
func (p Params) P() int { return 1 << (2 * p.ProcOrder) }

// Validate checks that the parameters are mutually consistent.
func (p Params) Validate() error {
	if p.Particles < 1 {
		return fmt.Errorf("experiments: need at least 1 particle")
	}
	if p.Order > 15 {
		return fmt.Errorf("experiments: order %d too large", p.Order)
	}
	if p.ProcOrder > p.Order {
		return fmt.Errorf("experiments: processor order %d exceeds order %d", p.ProcOrder, p.Order)
	}
	if uint64(p.Particles) > geom.Cells(p.Order) {
		return fmt.Errorf("experiments: %d particles exceed %d cells", p.Particles, geom.Cells(p.Order))
	}
	if p.Trials < 1 {
		return fmt.Errorf("experiments: need at least 1 trial")
	}
	if p.Radius < 0 {
		return fmt.Errorf("experiments: negative radius")
	}
	// No two cells of the grid are farther apart than 2*side under any
	// metric, so a larger radius changes no result; rejecting it keeps
	// the radius-sized neighbor-window buffers bounded.
	if maxR := 2 * int(geom.Side(p.Order)); p.Radius > maxR {
		return fmt.Errorf("experiments: radius %d exceeds %d, twice the grid side at order %d", p.Radius, maxR, p.Order)
	}
	if p.Workers < 0 {
		return fmt.Errorf("experiments: negative worker count")
	}
	if !legacyEngines[p.NFIEngine] {
		return fmt.Errorf("experiments: unknown engine %q (want tree, keys, or auto)", p.NFIEngine)
	}
	if p.Distribution != "" {
		if _, err := dist.ByName(p.Distribution); err != nil {
			return fmt.Errorf("experiments: %w", err)
		}
	}
	if !incrModes[p.IncrMode] {
		return fmt.Errorf("experiments: unknown incr mode %q", p.IncrMode)
	}
	return nil
}

// Scale returns a copy of p with particle count and grid/processor
// orders reduced by the given factor of 4 (each step quarters the
// particles and halves the grid side), used to derive fast test
// parameters from paper presets.
func (p Params) Scale(steps uint) Params {
	q := p
	for i := uint(0); i < steps; i++ {
		if q.Particles > 16 {
			q.Particles /= 4
		}
		if q.Order > 2 {
			q.Order--
		}
		if q.ProcOrder > 1 {
			q.ProcOrder--
		}
	}
	return q
}

// Paper-scale presets (§VI).
var (
	// Table12Paper: 250,000 particles, 1024x1024 resolution, 65,536
	// processors on a torus (Tables I and II).
	Table12Paper = Params{Particles: 250000, Order: 10, ProcOrder: 8, Radius: 1, Trials: 3, Seed: 2013}
	// Fig6Paper: 1,000,000 uniform particles, 4096x4096, radius 4
	// (Figure 6); the paper does not state p, we use 65,536.
	Fig6Paper = Params{Particles: 1000000, Order: 12, ProcOrder: 8, Radius: 4, Trials: 1, Seed: 2013}
	// Fig7Paper: 1,000,000 uniform particles; p sweeps 1,024..65,536
	// (Figure 7).
	Fig7Paper = Params{Particles: 1000000, Order: 11, ProcOrder: 8, Radius: 1, Trials: 1, Seed: 2013}
)

// trialSeed derives the sampling seed of one trial.
func trialSeed(base uint64, trial int) uint64 {
	return base + uint64(trial)*0x9e3779b97f4a7c15
}

// samplePoints draws the trial's unique particle set.
func samplePoints(s dist.Sampler, p Params, trial int) ([]geom.Point, error) {
	defer obs.StartSpan("sampling").End()
	r := rng.New(trialSeed(p.Seed, trial))
	return dist.SampleUnique(s, r, p.Order, p.Particles)
}

// curveNames returns the display names of a curve list.
func curveNames(curves []sfc.Curve) []string {
	names := make([]string, len(curves))
	for i, c := range curves {
		names[i] = c.Name()
	}
	return names
}

// torusPerCurve builds one torus per processor-order curve at the
// params' processor count.
func torusPerCurve(p Params, curves []sfc.Curve) []topology.Topology {
	topos := make([]topology.Topology, len(curves))
	for i, c := range curves {
		topos[i] = topology.NewTorus(p.ProcOrder, c)
	}
	return topos
}
