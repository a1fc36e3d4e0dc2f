package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"sfcacd/internal/acd"
	"sfcacd/internal/dist"
	"sfcacd/internal/experiments"
	"sfcacd/internal/fmmmodel"
	"sfcacd/internal/geom"
	"sfcacd/internal/obs"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

// sweepWorkers is the worker count of every parallel sweep: the
// benchmark box has two vCPUs, and pinning it keeps runs on bigger
// machines comparable.
const sweepWorkers = 2

// sweepShape is one registry-runner sweep workload: the runner, its
// parameters, and how the benchmark rebuilds and checks its cells.
type sweepShape struct {
	experiment string
	params     experiments.Params
	samplers   []dist.Sampler
	// networks lists, as (kind, placement curve) pairs, the
	// topologies the cells of one particle curve are evaluated on;
	// perCell says the runner builds them per cell rather than once per
	// sweep.
	networks func(curve sfc.Curve) []network
	perCell  bool
	// cells extracts the runner's reported NFI and FFI values for
	// distribution d, particle curve pc and topology t.
	cells func(r experiments.Result) (nfi, ffi func(d, pc, t int) float64, err error)
	// property checks the property that makes the workload informative
	// from the sweeps' phase shares and one sweep's distinct pair count.
	property func(res *result, sh phaseShare, pairs uint64)
}

// phaseShare sums the program's own phase tree (internal/obs) over
// registry sweeps: busy time of the cell phases, and the parts of it
// spent building and contracting communication matrices.
type phaseShare struct{ busy, build, contract int64 }

func (s *phaseShare) add(phases []obs.PhaseSnapshot) {
	var walk func(ps []obs.PhaseSnapshot, top bool)
	walk = func(ps []obs.PhaseSnapshot, top bool) {
		for _, p := range ps {
			if p.Name == "sweep" {
				walk(p.Children, true)
				continue
			}
			if top {
				s.busy += p.Ns
			}
			switch {
			case strings.HasPrefix(p.Name, "commmat.build"):
				s.build += p.Ns
			case p.Name == "commmat.contract":
				s.contract += p.Ns
			}
			walk(p.Children, false)
		}
	}
	walk(phases, false)
}

func (s phaseShare) frac(part int64) float64 {
	if s.busy == 0 {
		return 0
	}
	return float64(part) / float64(s.busy)
}

// network is one topology of a cell: its kind and the curve that
// places ranks on it.
type network struct {
	kind      string
	placement sfc.Curve
}

// topos builds the program's topologies of a cell.
func (sh *sweepShape) topos(curve sfc.Curve) ([]topology.Topology, error) {
	var out []topology.Topology
	for _, n := range sh.networks(curve) {
		t, err := topology.New(n.kind, sh.params.P(), n.placement)
		if err != nil {
			return nil, err
		}
		out = append(out, t)
	}
	return out, nil
}

// hops returns the reference hop functions of the same topologies.
func (sh *sweepShape) hops(curve sfc.Curve) ([]func(a, b int) int, error) {
	var out []func(a, b int) int
	for _, n := range sh.networks(curve) {
		h, err := refHops(n.kind, sh.params.P(), n.placement)
		if err != nil {
			return nil, err
		}
		out = append(out, h)
	}
	return out, nil
}

func runTable12Dense(cfg config) (*result, error) {
	// The registry runner at the scaled shape acdbench and acdserverd
	// default to: n = 15,625 at order 8, p = 4,096, r = 1, 3 trials.
	p := experiments.Table12Paper.Scale(2)
	p.Seed = cfg.seed
	p.Workers = sweepWorkers
	curves := sfc.All()
	sh := &sweepShape{
		experiment: "table12",
		params:     p,
		samplers:   dist.All(),
		// One torus per processor-order curve, shared by every cell.
		networks: func(sfc.Curve) []network {
			out := make([]network, len(curves))
			for i, c := range curves {
				out[i] = network{"torus", c}
			}
			return out
		},
		cells: func(r experiments.Result) (nfi, ffi func(d, pc, t int) float64, err error) {
			set, ok := r.(experiments.Table12Set)
			if !ok {
				return nil, nil, fmt.Errorf("table12 returned %T", r)
			}
			return func(d, pc, t int) float64 { return set[d].NFI[t][pc] },
				func(d, pc, t int) float64 { return set[d].FFI[t][pc] }, nil
		},
		property: func(res *result, sh phaseShare, _ uint64) {
			f := sh.frac(sh.build)
			res.property(f > 0.5, "commmat build is %.1f%% of busy time (want > 50%%)", 100*f)
		},
	}
	return sh.run(cfg)
}

func runFig6Sparse(cfg config) (*result, error) {
	// Figure 6's shape: n = 1,000,000 uniform at order 12, r = 4, all
	// six topologies; the paper does not state p, so p = 64.
	p := experiments.Params{Particles: 1000000, Order: 12, ProcOrder: 3, Radius: 4, Trials: 1,
		Seed: cfg.seed, Workers: sweepWorkers}
	sh := &sweepShape{
		experiment: "fig6",
		params:     p,
		samplers:   []dist.Sampler{dist.Uniform},
		perCell:    true,
		// The six topologies, placed along the particle curve.
		networks: func(curve sfc.Curve) []network {
			out := make([]network, len(experiments.Fig6Topologies))
			for i, kind := range experiments.Fig6Topologies {
				out[i] = network{kind, curve}
			}
			return out
		},
		cells: func(r experiments.Result) (nfi, ffi func(d, pc, t int) float64, err error) {
			f, ok := r.(experiments.Fig6Result)
			if !ok {
				return nil, nil, fmt.Errorf("fig6 returned %T", r)
			}
			return func(_, pc, t int) float64 { return f.NFI[t][pc] },
				func(_, pc, t int) float64 { return f.FFI[t][pc] }, nil
		},
		property: func(res *result, sh phaseShare, pairs uint64) {
			f := sh.frac(sh.contract)
			res.property(f < 0.01 && pairs < 10000,
				"contraction is %.3f%% of busy time (want < 1%%), %d distinct pairs (want < 10000)", 100*f, pairs)
		},
	}
	return sh.run(cfg)
}

// trialSeed mirrors the registry runners' per-trial sampling seed, so
// the benchmark's reference and serial pipeline see the runner's
// particle sets.
func trialSeed(base uint64, trial int) uint64 {
	return base + uint64(trial)*0x9e3779b97f4a7c15
}

// inputs are a sweep's particle sets, indexed [distribution][trial].
type inputs [][][]geom.Point

func (sh *sweepShape) sample() (inputs, error) {
	p := sh.params
	in := make(inputs, len(sh.samplers))
	for d, s := range sh.samplers {
		for trial := 0; trial < p.Trials; trial++ {
			pts, err := dist.SampleUnique(s, rng.New(trialSeed(p.Seed, trial)), p.Order, p.Particles)
			if err != nil {
				return nil, err
			}
			in[d] = append(in[d], pts)
		}
	}
	return in, nil
}

// sweepRun is one timed registry sweep.
type sweepRun struct {
	wall   time.Duration
	out    experiments.Result
	body   []byte
	phases []obs.PhaseSnapshot
	counts map[string]uint64
}

func (sh *sweepShape) registrySweep(workers int) (sweepRun, error) {
	spec, ok := experiments.Lookup(sh.experiment)
	if !ok {
		return sweepRun{}, fmt.Errorf("no registry entry %q", sh.experiment)
	}
	obs.TakeSpans()
	before := counterSet(exactCounters)
	start := time.Now()
	p := sh.params
	p.Workers = workers
	out, err := spec.Run(context.Background(), p)
	wall := time.Since(start)
	if err != nil {
		return sweepRun{}, err
	}
	run := sweepRun{wall: wall, out: out.Result, phases: obs.TakeSpans(), counts: counterDelta(exactCounters, before)}
	run.body, err = json.Marshal(out.Result)
	return run, err
}

func (sh *sweepShape) run(cfg config) (*result, error) {
	res := &result{}
	in, sampling, err := timeSetup(sh.sample)
	if err != nil {
		return nil, err
	}
	// The warm-up sweep runs on one worker: the exact counters come
	// from it, because on two workers the order in which concurrent
	// cells fill the program's distance-table cache can change
	// topology.distance.analytic. Every later sweep runs on two
	// workers and must repeat its output byte for byte, which also
	// checks that results do not depend on the worker count. Set-up
	// counts it: it is the cold first call that fills the program's
	// pools and caches, so work moved out of the sweeps into lazy
	// initialization shows in setup_s.
	warm, err := sh.registrySweep(1)
	if err != nil {
		return nil, err
	}
	setup := sampling + warm.wall.Seconds()
	res.ops++
	nfiOut, ffiOut, err := sh.cells(warm.out)
	if err != nil {
		return nil, err
	}
	if err := sh.checkReference(res, in, nfiOut, ffiOut); err != nil {
		return nil, err
	}
	var share phaseShare
	share.add(warm.phases)
	res.note("set-up %.3f s: sampling %.4f s (median of 5) + warm-up sweep on one worker %.3f s",
		setup, sampling, warm.wall.Seconds())
	noteCounters(res, "one-worker sweep", warm.counts)

	// check compares a later sweep with the warm-up sweep's output byte
	// for byte, and notes which counters moved with the scheduling.
	varied := map[string]bool{}
	check := func(r sweepRun) {
		res.ops++
		if !bytes.Equal(r.body, warm.body) {
			res.fail("sweep output differs from the one-worker sweep's")
		}
		for _, n := range exactCounters {
			if r.counts[n] != warm.counts[n] {
				varied[n] = true
			}
		}
		share.add(r.phases)
	}

	// measure times two-worker registry sweeps for d, at least one.
	var sweeps []float64
	measure := func(d time.Duration) error {
		deadline := time.Now().Add(d)
		for n := 0; n == 0 || time.Now().Before(deadline); n++ {
			r, err := sh.registrySweep(sweepWorkers)
			if err != nil {
				return err
			}
			check(r)
			sweeps = append(sweeps, r.wall.Seconds())
		}
		return nil
	}

	settle()
	if cfg.trace {
		res.spans = newTracer()
		mem := startMemSampler()
		busyMs, err := sh.tracedPasses(res, cfg, in, nfiOut, ffiOut)
		if err != nil {
			return nil, err
		}
		if err := measure(cfg.span(0.5)); err != nil {
			return nil, err
		}
		mem.finish(res)
		sweepS := quantile(sweeps, 0.5)
		res.set("experiments.parallel_eff", busyMs/1e3/(sweepWorkers*sweepS), "ratio")
		res.note("registry sweep_s p50 %.4f s over %d sweeps", sweepS, len(sweeps))
		setCounters(res, warm.counts)
	} else {
		if err := measure(cfg.span(1)); err != nil {
			return nil, err
		}
		res.set("setup_s", setup, "s")
		res.set("op_ms_p50", 1e3*quantile(sweeps, 0.5), "ms")
		// A run holds 7 to 50 sweeps, too few for a 90th percentile with
		// ten samples beyond it, so the sweeps' tail is the upper quartile.
		res.set("op_ms_tail", 1e3*quantile(sweeps, 0.75), "ms")
		res.note("sweep_s p50 %.4f s, p75 %.4f s over %d sweeps (op_ms_p50, op_ms_tail)",
			quantile(sweeps, 0.5), quantile(sweeps, 0.75), len(sweeps))
	}
	for _, n := range exactCounters {
		if varied[n] {
			res.note("counter %s differs between the two-worker sweeps and the one-worker sweep", n)
		}
	}
	sh.property(res, share, warm.counts["commmat.pairs"])
	return res, nil
}

// checkReference recomputes one seeded-random (distribution, particle
// curve) column of the sweep, every trial and topology, with the naive
// reference and compares it with the runner's output exactly.
func (sh *sweepShape) checkReference(res *result, in inputs, nfiOut, ffiOut func(d, pc, t int) float64) error {
	p := sh.params
	curves := sfc.All()
	r := rng.New(p.Seed ^ 0x7e57)
	d, pc := r.Intn(len(sh.samplers)), r.Intn(len(curves))
	hops, err := sh.hops(curves[pc])
	if err != nil {
		return err
	}
	nfi := make([]float64, len(hops))
	ffi := make([]float64, len(hops))
	for trial := 0; trial < p.Trials; trial++ {
		sorted, ranks := refAssign(in[d][trial], curves[pc], p.Order, p.P())
		rn := refNFI(p.Order, sorted, ranks, p.Radius, hops)
		rf := refFFI(p.Order, sorted, ranks, hops)
		for t := range hops {
			nfi[t] += rn[t].acd()
			ffi[t] += rf[t].acd()
		}
	}
	bad := 0
	for t := range hops {
		// The runners average trials in this order and scale by 1/Trials.
		wn, wf := nfi[t]*(1/float64(p.Trials)), ffi[t]*(1/float64(p.Trials))
		if nfiOut(d, pc, t) != wn || ffiOut(d, pc, t) != wf {
			bad++
			res.note("reference mismatch at topology %d: NFI %v want %v, FFI %v want %v",
				t, nfiOut(d, pc, t), wn, ffiOut(d, pc, t), wf)
		}
	}
	if bad > 0 {
		res.fail("%s column (%s, %s) disagrees with the naive reference", sh.experiment,
			sh.samplers[d].Name(), curves[pc].Name())
	} else {
		res.note("reference ok: column (%s, %s), %d topologies x %d trials", sh.samplers[d].Name(),
			curves[pc].Name(), len(hops), p.Trials)
	}
	return nil
}

// passStats is what one serial pipeline pass did.
type passStats struct {
	wall                time.Duration
	nfi, ffi            [][][][]float64 // [d][trial][pc][t] ACD
	particles, assigned uint64
	nfiEvents, nfiPairs uint64
	ffiEvents, ffiPairs uint64
	distQueries         uint64
	// Traced passes only: the root span's duration and the self time
	// of every span name.
	rootNs int64
	self   map[string]int64
}

// serialPass composes the sweep's cell pipeline from the layers' public
// calls, one cell after another on one goroutine, with a span around
// every call when t is non-nil. It computes what the registry runner
// computes (the traced run checks that) and is also the sweep's
// single-threaded baseline.
func (sh *sweepShape) serialPass(t *tracer, op int64, in inputs) (passStats, error) {
	p := sh.params
	curves := sfc.All()
	st := passStats{nfi: make([][][][]float64, len(in)), ffi: make([][][][]float64, len(in))}
	start := time.Now()
	root := t.begin("bench.pass", -1, op)
	var shared []topology.Topology
	var sharedDT []*topology.DistanceTable
	tables := func(curve sfc.Curve) ([]topology.Topology, []*topology.DistanceTable, error) {
		id := t.begin("topology.table", root, op)
		defer t.end(id)
		topos, err := sh.topos(curve)
		if err != nil {
			return nil, nil, err
		}
		dts := make([]*topology.DistanceTable, len(topos))
		for i, tp := range topos {
			dts[i] = topology.NewDistanceTable(tp)
		}
		return topos, dts, nil
	}
	if !sh.perCell {
		var err error
		if shared, sharedDT, err = tables(nil); err != nil {
			return st, err
		}
	}
	queries := []string{"topology.distance.analytic", "topology.distance.bfs"}
	pairCounters := []string{"commmat.events", "commmat.pairs"}
	for d, s := range sh.samplers {
		for trial := 0; trial < p.Trials; trial++ {
			id := t.begin("dist.sample", root, op)
			pts, err := dist.SampleUnique(s, rng.New(trialSeed(p.Seed, trial)), p.Order, p.Particles)
			t.end(id)
			if err != nil {
				return st, err
			}
			st.particles += uint64(len(pts))
			nfiRow := make([][]float64, len(curves))
			ffiRow := make([][]float64, len(curves))
			for pc, curve := range curves {
				id = t.begin("acd.assign", root, op)
				a, err := acd.Assign(pts, curve, p.Order, p.P())
				t.end(id)
				if err != nil {
					return st, err
				}
				st.assigned += uint64(a.N())
				topos, dts := shared, sharedDT
				if sh.perCell {
					if topos, dts, err = tables(curve); err != nil {
						return st, err
					}
				}
				id = t.begin("commmat.nfi_build", root, op)
				m := fmmmodel.NFIMatrix(a, fmmmodel.NFIOptions{Radius: p.Radius, Metric: geom.MetricChebyshev, Workers: 1})
				t.end(id)
				st.nfiEvents += m.Events()
				st.nfiPairs += uint64(m.Pairs())
				accs := make([]acd.Accumulator, len(dts))
				ptrs := make([]*acd.Accumulator, len(dts))
				for i := range accs {
					ptrs[i] = &accs[i]
				}
				q0 := counterSet(queries)
				id = t.begin("commmat.contract", root, op)
				m.ContractTableMultiSym(dts, ptrs, 1)
				t.end(id)
				for _, v := range counterDelta(queries, q0) {
					st.distQueries += v
				}
				c0 := counterSet(pairCounters)
				id = t.begin("fmmmodel.ffi", root, op)
				ffi := fmmmodel.FFIMulti(a, topos, fmmmodel.FFIOptions{Workers: 1})
				t.end(id)
				c := counterDelta(pairCounters, c0)
				st.ffiEvents += c["commmat.events"]
				st.ffiPairs += c["commmat.pairs"]
				a.Release()
				nfiRow[pc] = make([]float64, len(accs))
				ffiRow[pc] = make([]float64, len(accs))
				for i := range accs {
					accs[i].Record()
					nfiRow[pc][i] = accs[i].ACD()
					ffiRow[pc][i] = ffi[i].Total().ACD()
				}
			}
			st.nfi[d] = append(st.nfi[d], nfiRow)
			st.ffi[d] = append(st.ffi[d], ffiRow)
		}
	}
	t.end(root)
	st.wall = time.Since(start)
	st.rootNs = t.duration(root)
	return st, nil
}

// tracedPasses alternates untraced and traced serial passes for the
// first half of the run, checks each pass against the runner's output,
// and reports the per-layer metrics of the median traced pass. It
// returns that pass's layer busy time in milliseconds.
func (sh *sweepShape) tracedPasses(res *result, cfg config, in inputs, nfiOut, ffiOut func(d, pc, t int) float64) (float64, error) {
	deadline := time.Now().Add(cfg.span(0.5))
	var plain []float64
	var traced []passStats
	for op := int64(0); len(traced) == 0 || time.Now().Before(deadline); op++ {
		var t *tracer
		var mark int
		if op%2 == 1 {
			t = res.spans
			mark = t.mark()
		}
		st, err := sh.serialPass(t, op, in)
		if err != nil {
			return 0, err
		}
		res.ops++
		if !sh.matches(st, nfiOut, ffiOut) {
			res.fail("serial pipeline pass %d differs from the registry runner's output", op)
		}
		if t == nil {
			plain = append(plain, st.wall.Seconds())
			continue
		}
		st.self = t.selfTimes(mark)
		traced = append(traced, st)
	}
	// Take every layer value from one pass, the median one by wall
	// time, so the self times and bench.uncovered_ms add up to its
	// bench.traced_wall_ms exactly.
	walls := make([]float64, len(traced))
	for i, st := range traced {
		walls[i] = st.wall.Seconds()
	}
	med := quantile(walls, 0.5)
	best := traced[0]
	for _, st := range traced {
		if abs64(st.wall.Seconds()-med) < abs64(best.wall.Seconds()-med) {
			best = st
		}
	}
	self := func(name string) float64 { return float64(best.self[name]) / 1e6 }
	res.set("dist.sample_ms", self("dist.sample"), "ms")
	res.set("dist.particles", float64(best.particles), "count")
	res.set("acd.assign_ms", self("acd.assign"), "ms")
	res.set("acd.assign_ns_per_particle", float64(best.self["acd.assign"])/float64(best.assigned), "ns")
	res.set("commmat.nfi_build_ms", self("commmat.nfi_build"), "ms")
	res.set("commmat.nfi_events", float64(best.nfiEvents), "count")
	res.set("commmat.nfi_pairs", float64(best.nfiPairs), "count")
	res.set("commmat.nfi_build_ns_per_event", float64(best.self["commmat.nfi_build"])/float64(best.nfiEvents), "ns")
	res.set("fmmmodel.ffi_ms", self("fmmmodel.ffi"), "ms")
	res.set("commmat.ffi_events", float64(best.ffiEvents), "count")
	res.set("commmat.ffi_pairs", float64(best.ffiPairs), "count")
	res.set("topology.table_ms", self("topology.table"), "ms")
	res.set("commmat.contract_ms", self("commmat.contract"), "ms")
	res.set("commmat.contract_ns_per_pair", float64(best.self["commmat.contract"])/float64(best.nfiPairs), "ns")
	res.set("topology.distance_queries", float64(best.distQueries), "count")
	wallMs := float64(best.rootNs) / 1e6
	uncovered := self("bench.pass")
	res.set("bench.traced_wall_ms", wallMs, "ms")
	res.set("bench.uncovered_ms", uncovered, "ms")
	plainMed := quantile(plain, 0.5)
	res.set("bench.trace_overhead", med/plainMed-1, "ratio")
	res.note("serial pipeline: %d traced and %d untraced passes, traced p50 %.4f s, untraced p50 %.4f s",
		len(traced), len(plain), med, plainMed)
	sum := uncovered
	for name, ns := range best.self {
		if name != "bench.pass" {
			sum += float64(ns) / 1e6
		}
	}
	res.note("layer self times + bench.uncovered_ms = %.3f ms, traced wall %.3f ms", sum, wallMs)
	return wallMs - uncovered, nil
}

// matches reports whether a serial pass reproduces the runner's
// averaged output exactly.
func (sh *sweepShape) matches(st passStats, nfiOut, ffiOut func(d, pc, t int) float64) bool {
	p := sh.params
	for d := range st.nfi {
		for pc := range st.nfi[d][0] {
			for t := range st.nfi[d][0][pc] {
				var n, f float64
				for trial := 0; trial < p.Trials; trial++ {
					n += st.nfi[d][trial][pc][t]
					f += st.ffi[d][trial][pc][t]
				}
				if n*(1/float64(p.Trials)) != nfiOut(d, pc, t) || f*(1/float64(p.Trials)) != ffiOut(d, pc, t) {
					return false
				}
			}
		}
	}
	return true
}

func abs64(v float64) float64 {
	if v < 0 {
		return -v
	}
	return v
}
