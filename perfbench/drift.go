package main

import (
	"context"
	"fmt"
	"slices"
	"time"

	"sfcacd/internal/acd"
	"sfcacd/internal/dist"
	"sfcacd/internal/experiments"
	"sfcacd/internal/geom"
	"sfcacd/internal/incr"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

const (
	// driftFrac is the share of particles that step to a free adjacent
	// cell each tick: 2%, the regime the incremental pipeline targets
	// (about 312 moves per curve-tick at n = 15,625).
	driftFrac = 0.02
	// minTicks is the least number of ticks a run measures, so the
	// 90th percentile has ten samples beyond it.
	minTicks = 100
	// cycleTicks is the length of the drift trajectory. A run replays
	// it from the initial state as often as its time allows, so every
	// run measures the same ticks in the same proportions however fast
	// the program is: a faster program must not drift further and
	// measure different states.
	cycleTicks = 200
	// checkEvery is the tick interval of the naive reference check on
	// the first pass over the trajectory; one seeded-random tick is
	// checked as well. Replays must repeat the first pass exactly.
	checkEvery = 50
)

// move relocates one particle identity to a new cell.
type move struct {
	id int32
	to geom.Point
}

// trajectory generates cycleTicks ticks of drift from the seed: each
// tick it picks driftFrac of the particles at random and steps each to
// a random free cell among its eight neighbors, if one is free. Cells
// stay distinct because every step sees the steps before it.
func trajectory(pts []geom.Point, order uint, r *rng.Rand) [][]move {
	side := 1 << order
	pts = slices.Clone(pts)
	occ := make([]bool, side*side)
	for _, p := range pts {
		occ[int(p.Y)*side+int(p.X)] = true
	}
	steps := [8][2]int{{1, 0}, {1, 1}, {0, 1}, {-1, 1}, {-1, 0}, {-1, -1}, {0, -1}, {1, -1}}
	picked := make([]int, len(pts))
	k := int(driftFrac*float64(len(pts)) + 0.5)
	out := make([][]move, cycleTicks)
	for tick := range out {
		for len(out[tick]) < k {
			id := r.Intn(len(pts))
			if picked[id] == tick+1 {
				continue
			}
			picked[id] = tick + 1
			p := pts[id]
			first := r.Intn(len(steps))
			for i := range steps {
				s := steps[(first+i)%len(steps)]
				x, y := int(p.X)+s[0], int(p.Y)+s[1]
				if x < 0 || y < 0 || x >= side || y >= side || occ[y*side+x] {
					continue
				}
				occ[int(p.Y)*side+int(p.X)] = false
				occ[y*side+x] = true
				pts[id] = geom.Pt(uint32(x), uint32(y))
				out[tick] = append(out[tick], move{int32(id), pts[id]})
				break
			}
		}
	}
	return out
}

// driftState is the incr-drift workload's input: one maintained
// pipeline per particle curve, the torus distance tables every tick
// contracts against, and the drift trajectory.
type driftState struct {
	params  experiments.Params
	curves  []sfc.Curve
	initial []geom.Point
	traj    [][]move
	dts     []*topology.DistanceTable
	hops    []func(a, b int) int
	states  []*incr.State
	cur     []geom.Point
}

func newDriftState(p experiments.Params) (*driftState, error) {
	pts, err := dist.SampleUnique(dist.Uniform, rng.New(trialSeed(p.Seed, 0)), p.Order, p.Particles)
	if err != nil {
		return nil, err
	}
	ds := &driftState{params: p, curves: sfc.All(), initial: pts,
		traj: trajectory(pts, p.Order, rng.New(p.Seed^0xd21f7))}
	for _, c := range ds.curves {
		ds.dts = append(ds.dts, topology.NewDistanceTable(topology.NewTorus(p.ProcOrder, c)))
		h, err := refHops("torus", p.P(), c)
		if err != nil {
			return nil, err
		}
		ds.hops = append(ds.hops, h)
	}
	return ds, ds.reset()
}

// reset builds every curve's pipeline from scratch at the initial
// positions, the start of the trajectory.
func (ds *driftState) reset() error {
	ds.release()
	p := ds.params
	ds.cur = slices.Clone(ds.initial)
	ds.states = ds.states[:0]
	for _, c := range ds.curves {
		s, err := incr.NewState(incr.Config{Curve: c, Order: p.Order, P: p.P(), Radius: p.Radius,
			Metric: geom.MetricChebyshev}, ds.cur)
		if err != nil {
			return err
		}
		ds.states = append(ds.states, s)
	}
	return nil
}

func (ds *driftState) release() {
	for _, s := range ds.states {
		s.Release()
	}
}

// tickOut is what one tick of every curve produced.
type tickOut struct {
	wall   time.Duration
	stats  []incr.TickStats
	accs   [][]acd.Accumulator
	busyNs []int64 // per curve: Tick
	acdNs  []int64 // per curve: ACDMulti
}

// tick applies one tick of drift and advances every curve's pipeline
// on the sweep scheduler's two workers: Tick, then the fused torus
// contraction ACDMulti. t records a span per call when non-nil.
func (ds *driftState) tick(t *tracer, op int64, moves []move) (tickOut, error) {
	for _, m := range moves {
		ds.cur[m.id] = m.to
	}
	nc := len(ds.states)
	out := tickOut{stats: make([]incr.TickStats, nc), accs: make([][]acd.Accumulator, nc),
		busyNs: make([]int64, nc), acdNs: make([]int64, nc)}
	start := time.Now()
	root := t.begin("bench.tick", -1, op)
	err := experiments.RunCells(context.Background(), sweepWorkers, nc, func(c int) error {
		t0 := time.Now()
		id := t.begin("incr.tick", root, op)
		st, err := ds.states[c].Tick(ds.cur)
		t.end(id)
		t1 := time.Now()
		if err != nil {
			return err
		}
		id = t.begin("incr.acd", root, op)
		out.accs[c] = ds.states[c].ACDMulti(ds.dts)
		t.end(id)
		out.stats[c] = st
		out.busyNs[c] = t1.Sub(t0).Nanoseconds()
		out.acdNs[c] = time.Since(t1).Nanoseconds()
		return nil
	})
	t.end(root)
	out.wall = time.Since(start)
	return out, err
}

// check compares every curve's contraction with the naive reference
// over the current positions, event for event.
func (ds *driftState) check(out tickOut) error {
	p := ds.params
	for c, curve := range ds.curves {
		sorted, ranks := refAssign(ds.cur, curve, p.Order, p.P())
		want := refNFI(p.Order, sorted, ranks, p.Radius, ds.hops)
		for t, w := range want {
			got := out.accs[c][t]
			if got.Sum != w.sum || got.Count != w.count || got.Zeros != w.zeros {
				return fmt.Errorf("curve %s torus %d: sum/count/zeros %d/%d/%d, reference %d/%d/%d",
					curve.Name(), t, got.Sum, got.Count, got.Zeros, w.sum, w.count, w.zeros)
			}
		}
	}
	return nil
}

func runIncrDrift(cfg config) (*result, error) {
	// incr.State per curve at the table12 shape: n = 15,625 uniform at
	// order 8, p = 4,096, r = 1.
	p := experiments.Table12Paper.Scale(2)
	p.Seed = cfg.seed
	p.Trials = 1
	var prev *driftState
	ds, setup, err := timeSetup(func() (*driftState, error) {
		if prev != nil {
			prev.release()
		}
		var err error
		prev, err = newDriftState(p)
		return prev, err
	})
	if err != nil {
		return nil, err
	}
	defer ds.release()
	res := &result{}
	extraCheck := 1 + rng.New(cfg.seed^0x7e57).Intn(cycleTicks-1)

	settle()
	var mem *memSampler
	if cfg.trace {
		res.spans = newTracer()
		mem = startMemSampler()
	}
	var walls, tracedWalls, plainWalls, busy, acdMs, uncovered, rootMs []float64
	var moved, touched, rebuilds, curveTicks int
	var counts map[string]uint64
	first := make([][][]acd.Accumulator, cycleTicks)
	before := counterSet(exactCounters)
	deadline := time.Now().Add(cfg.span(1))
	for tick := 0; tick < minTicks || time.Now().Before(deadline); tick++ {
		ct := tick % cycleTicks
		if tick > 0 && ct == 0 {
			if err := ds.reset(); err != nil {
				return nil, err
			}
		}
		moves := ds.traj[ct]
		// A traced run alternates traced and untraced ticks, so both see
		// the same stretch of the trajectory.
		var t *tracer
		var mark int
		if cfg.trace && tick%2 == 1 {
			t = res.spans
			mark = t.mark()
		}
		out, err := ds.tick(t, int64(tick), moves)
		if err != nil {
			return nil, err
		}
		res.ops++
		walls = append(walls, ms(out.wall))
		if tick+1 == minTicks {
			counts = counterDelta(exactCounters, before)
		}
		bad := false
		for c, st := range out.stats {
			if st.Moved != len(moves) {
				bad = true
				res.note("curve %s saw %d moved particles, drift moved %d", ds.curves[c].Name(), st.Moved, len(moves))
			}
			moved += st.Moved
			touched += st.Retracted + st.Readded
			if st.Repartitioned {
				rebuilds++
			}
			curveTicks++
		}
		switch {
		case tick < cycleTicks:
			first[ct] = out.accs
			if ct%checkEvery == 0 || ct == extraCheck {
				if err := ds.check(out); err != nil {
					bad = true
					res.note("tick %d: %v", tick, err)
				}
			}
		case !slices.EqualFunc(out.accs, first[ct], slices.Equal[[]acd.Accumulator]):
			bad = true
			res.note("tick %d: replay differs from the first pass over the trajectory", tick)
		}
		if bad {
			res.fail("tick %d disagrees with the drift, the naive reference or its first pass", tick)
		}
		if !cfg.trace {
			continue
		}
		if t == nil {
			plainWalls = append(plainWalls, ms(out.wall))
			continue
		}
		tracedWalls = append(tracedWalls, ms(out.wall))
		var b, a int64
		for c := range out.busyNs {
			b += out.busyNs[c]
			a += out.acdNs[c]
		}
		busy = append(busy, float64(b)/1e6)
		acdMs = append(acdMs, float64(a)/1e6)
		uncovered = append(uncovered, float64(t.selfTimes(mark)["bench.tick"])/1e6)
		rootMs = append(rootMs, float64(t.duration(mark))/1e6)
	}
	movedFrac := float64(moved) / float64(curveTicks) / float64(p.Particles)
	res.note("%d ticks (%d-tick trajectory replayed), tick_ms_p50 %.4f, tick_ms_p90 %.4f (op_ms_p50, op_ms_tail)",
		len(walls), cycleTicks, quantile(walls, 0.5), quantile(walls, 0.9))
	noteCounters(res, fmt.Sprintf("first %d ticks", minTicks), counts)
	res.property(movedFrac > 0.015 && movedFrac < 0.025, "moved fraction %.4f per tick (want about 0.02)", movedFrac)
	if !cfg.trace {
		res.set("setup_s", setup, "s")
		res.set("op_ms_p50", quantile(walls, 0.5), "ms")
		res.set("op_ms_tail", quantile(walls, 0.9), "ms")
		return res, nil
	}
	mem.finish(res)
	res.set("incr.tick_busy_ms", quantile(busy, 0.5), "ms")
	res.set("incr.acd_ms", quantile(acdMs, 0.5), "ms")
	res.set("incr.moved_frac", movedFrac, "ratio")
	res.set("incr.touched_events", float64(touched)/float64(curveTicks), "count")
	res.set("incr.rebuild_frac", float64(rebuilds)/float64(curveTicks), "ratio")
	res.set("bench.uncovered_ms", quantile(uncovered, 0.5), "ms")
	res.set("bench.traced_wall_ms", quantile(rootMs, 0.5), "ms")
	res.set("bench.trace_overhead", quantile(tracedWalls, 0.5)/quantile(plainWalls, 0.5)-1, "ratio")
	setCounters(res, counts)
	return res, nil
}
