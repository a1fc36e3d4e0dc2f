package contention

import (
	"maps"
	"testing"

	"sfcacd/internal/acd"
	"sfcacd/internal/dist"
	"sfcacd/internal/fmmmodel"
	"sfcacd/internal/geom"
	"sfcacd/internal/oracle"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

func TestRouteHopsMatchDistanceOnMesh(t *testing.T) {
	m := topology.NewMesh(3, sfc.Hilbert)
	tr := NewTracker(m)
	var wantHops uint64
	for a := 0; a < m.P(); a += 3 {
		for b := 0; b < m.P(); b += 5 {
			tr.Route(int32(a), int32(b))
			wantHops += uint64(m.Distance(a, b))
		}
	}
	if tr.Hops != wantHops {
		t.Fatalf("hops %d, sum of distances %d", tr.Hops, wantHops)
	}
}

func TestRouteHopsMatchDistanceOnTorus(t *testing.T) {
	m := topology.NewTorus(3, sfc.Gray)
	tr := NewTracker(m)
	var wantHops uint64
	for a := 0; a < m.P(); a += 7 {
		for b := 0; b < m.P(); b++ {
			tr.Route(int32(a), int32(b))
			wantHops += uint64(m.Distance(a, b))
		}
	}
	if tr.Hops != wantHops {
		t.Fatalf("torus XY routing not minimal: hops %d, distances %d", tr.Hops, wantHops)
	}
}

func TestZeroHopMessages(t *testing.T) {
	m := topology.NewMesh(2, sfc.Hilbert)
	tr := NewTracker(m)
	tr.Route(3, 3)
	s := tr.Stats()
	if s.Messages != 1 || s.Hops != 0 || s.UsedLinks != 0 || s.MaxLinkLoad != 0 {
		t.Fatalf("zero-hop stats %+v", s)
	}
}

func TestSingleRouteLoads(t *testing.T) {
	// Route one message across a 4x4 mesh corner to corner: 6 links,
	// each loaded once.
	m := topology.NewMesh(2, sfc.RowMajor)
	tr := NewTracker(m)
	// RowMajor placement: rank = x*4+y, so rank 0 at (0,0), rank 15 at
	// (3,3).
	tr.Route(0, 15)
	s := tr.Stats()
	if s.Hops != 6 || s.UsedLinks != 6 || s.MaxLinkLoad != 1 {
		t.Fatalf("single route stats %+v", s)
	}
	if s.MeanLinkLoad != 1 {
		t.Fatalf("mean link load %f", s.MeanLinkLoad)
	}
}

func TestOppositeRoutesUseDistinctLinks(t *testing.T) {
	// Links are directed: a->b and b->a along a line share no links.
	m := topology.NewMesh(2, sfc.RowMajor)
	tr := NewTracker(m)
	a := int32(0)
	b := int32(m.RankAt(m.Coord(0)) + 3*4) // (3,0): 3 hops in +x? rank x*4+y => rank 12
	tr.Route(a, b)
	tr.Route(b, a)
	s := tr.Stats()
	if s.MaxLinkLoad != 1 {
		t.Fatalf("opposite routes collided: %+v", s)
	}
	if s.UsedLinks != 6 {
		t.Fatalf("used links %d, want 6", s.UsedLinks)
	}
}

func TestConvergingRoutesContend(t *testing.T) {
	// Many sources sending to one corner along a row must share the
	// final link.
	m := topology.NewMesh(2, sfc.RowMajor)
	tr := NewTracker(m)
	// Ranks 4, 8, 12 are at (1,0), (2,0), (3,0); all route to rank 0 at
	// (0,0) along the -x row.
	tr.Route(4, 0)
	tr.Route(8, 0)
	tr.Route(12, 0)
	s := tr.Stats()
	if s.MaxLinkLoad != 3 {
		t.Fatalf("converging max load %d, want 3 on the last link", s.MaxLinkLoad)
	}
}

func TestHilbertPlacementReducesNFICongestion(t *testing.T) {
	// The headline use of the extension: for the FMM near field on a
	// mesh, Hilbert particle+processor ordering should yield both lower
	// total hops and a less congested hottest link than row-major.
	const order = 7
	r := rng.New(1)
	pts, err := dist.SampleUnique(dist.Uniform, r, order, 2000)
	if err != nil {
		t.Fatal(err)
	}
	run := func(c sfc.Curve) Stats {
		a, err := acd.Assign(pts, c, order, 64)
		if err != nil {
			t.Fatal(err)
		}
		m := topology.NewMesh(3, c)
		tr := NewTracker(m)
		fmmmodel.VisitNFIPairs(a, fmmmodel.NFIOptions{Radius: 1}, tr.Route)
		return tr.Stats()
	}
	h := run(sfc.Hilbert)
	rm := run(sfc.RowMajor)
	if h.Hops >= rm.Hops {
		t.Errorf("hilbert hops %d >= rowmajor %d", h.Hops, rm.Hops)
	}
	if h.MaxLinkLoad >= rm.MaxLinkLoad {
		t.Errorf("hilbert max link load %d >= rowmajor %d", h.MaxLinkLoad, rm.MaxLinkLoad)
	}
}

// orderedEvents counts an event stream by ordered (src, dst) pair.
func orderedEvents(visit func(fn func(src, dst int32))) map[[2]int32]int {
	m := map[[2]int32]int{}
	visit(func(src, dst int32) { m[[2]int32{src, dst}]++ })
	return m
}

// TestVisitNFIPairsMatchesAccumulator: the near-field visitor emits
// exactly the oracle's ordered event multiset (direction matters: the
// router and the execution model charge the source), and its distances
// sum to the model's accumulator.
func TestVisitNFIPairsMatchesAccumulator(t *testing.T) {
	const order = 5
	r := rng.New(2)
	pts, err := dist.SampleUnique(dist.Normal, r, order, 150)
	if err != nil {
		t.Fatal(err)
	}
	a, err := acd.Assign(pts, sfc.Morton, order, 16)
	if err != nil {
		t.Fatal(err)
	}
	topo := topology.NewTorus(2, sfc.Hilbert)
	for _, m := range []geom.Metric{geom.MetricChebyshev, geom.MetricManhattan} {
		opts := fmmmodel.NFIOptions{Radius: 2, Metric: m}
		got := orderedEvents(func(fn func(src, dst int32)) { fmmmodel.VisitNFIPairs(a, opts, fn) })
		want := orderedEvents(func(fn func(src, dst int32)) { oracle.VisitNFIPairs(a, 2, m, fn) })
		if !maps.Equal(got, want) {
			t.Fatalf("%s: near-field event multiset differs from the oracle", m)
		}
		var sum, count uint64
		fmmmodel.VisitNFIPairs(a, opts, func(src, dst int32) {
			sum += uint64(topo.Distance(int(src), int(dst)))
			count++
		})
		acc := fmmmodel.NFIMulti(a, []topology.Topology{topo}, opts)[0]
		if sum != acc.Sum || count != acc.Count {
			t.Fatalf("%s: visitor sum=%d count=%d, accumulator %+v", m, sum, count, acc)
		}
	}
}

// TestVisitFFIPairsMatchesAccumulator is the far-field counterpart.
func TestVisitFFIPairsMatchesAccumulator(t *testing.T) {
	const order = 5
	r := rng.New(3)
	pts, err := dist.SampleUnique(dist.Exponential, r, order, 150)
	if err != nil {
		t.Fatal(err)
	}
	a, err := acd.Assign(pts, sfc.Hilbert, order, 16)
	if err != nil {
		t.Fatal(err)
	}
	got := orderedEvents(func(fn func(src, dst int32)) { fmmmodel.VisitFFIPairs(a, fn) })
	want := orderedEvents(func(fn func(src, dst int32)) { oracle.VisitFFIPairs(a, fn) })
	if !maps.Equal(got, want) {
		t.Fatal("far-field event multiset differs from the oracle")
	}
	topo := topology.NewMesh(2, sfc.Morton)
	var sum, count uint64
	fmmmodel.VisitFFIPairs(a, func(src, dst int32) {
		sum += uint64(topo.Distance(int(src), int(dst)))
		count++
	})
	acc := fmmmodel.FFIMulti(a, []topology.Topology{topo}, fmmmodel.FFIOptions{})[0].Total()
	if sum != acc.Sum || count != acc.Count {
		t.Fatalf("visitor sum=%d count=%d, accumulator %+v", sum, count, acc)
	}
}
