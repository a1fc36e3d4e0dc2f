package incr

import (
	"testing"

	"sfcacd/internal/acd"
	"sfcacd/internal/commmat"
	"sfcacd/internal/fmmmodel"
	"sfcacd/internal/geom"
	"sfcacd/internal/oracle"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

// scatter places n particles on distinct cells of a 2^order grid.
func scatter(n int, order uint, seed uint64) []geom.Point {
	r := rng.New(seed)
	side := geom.Side(order)
	seen := make(map[uint64]bool, n)
	pts := make([]geom.Point, 0, n)
	for len(pts) < n {
		pt := geom.Point{X: r.Uint32n(side), Y: r.Uint32n(side)}
		if id := geom.CellID(pt, side); !seen[id] {
			seen[id] = true
			pts = append(pts, pt)
		}
	}
	return pts
}

// driftStep moves roughly frac of the particles by one cell, skipping
// moves that would collide or leave the grid (same discipline as the
// dynamic experiments: identity order, evolving occupancy).
func driftStep(pts []geom.Point, order uint, frac float64, r *rng.Rand) []geom.Point {
	side := geom.Side(order)
	occ := make(map[uint64]bool, len(pts))
	for _, pt := range pts {
		occ[geom.CellID(pt, side)] = true
	}
	out := append([]geom.Point(nil), pts...)
	for i, pt := range out {
		if float64(r.Uint32n(1<<20))/float64(1<<20) >= frac {
			continue
		}
		dx := int(r.Uint32n(3)) - 1
		dy := int(r.Uint32n(3)) - 1
		nx, ny := int(pt.X)+dx, int(pt.Y)+dy
		if (dx == 0 && dy == 0) || nx < 0 || ny < 0 || nx >= int(side) || ny >= int(side) {
			continue
		}
		q := geom.Point{X: uint32(nx), Y: uint32(ny)}
		if occ[geom.CellID(q, side)] {
			continue
		}
		delete(occ, geom.CellID(pt, side))
		occ[geom.CellID(q, side)] = true
		out[i] = q
	}
	return out
}

func oracleMatrix(t *testing.T, pts []geom.Point, curve sfc.Curve, order uint, p, radius int, m geom.Metric) (*commmat.Matrix, *acd.Assignment) {
	t.Helper()
	a, err := acd.Assign(pts, curve, order, p)
	if err != nil {
		t.Fatal(err)
	}
	return fmmmodel.NFIMatrix(a, fmmmodel.NFIOptions{Radius: radius, Metric: m, Workers: 1}), a
}

// TestStateMatchesOracleEveryTick is the differential oracle: after
// every tick the maintained matrix must equal a from-scratch
// fmmmodel.NFIMatrix of the current configuration, and the maintained
// assignment must equal a from-scratch acd.Assign.
func TestStateMatchesOracleEveryTick(t *testing.T) {
	for _, curveName := range []string{"hilbert", "morton"} {
		for _, metric := range []geom.Metric{geom.MetricChebyshev, geom.MetricManhattan} {
			curve, err := sfc.ByName(curveName)
			if err != nil {
				t.Fatal(err)
			}
			const order, p, radius = 6, 13, 2
			pts := scatter(900, order, 31)
			s, err := NewState(Config{Curve: curve, Order: order, P: p, Radius: radius, Metric: metric}, pts)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(77)
			for tick := 0; tick < 10; tick++ {
				pts = driftStep(pts, order, 0.05, r)
				if _, err := s.Tick(pts); err != nil {
					t.Fatalf("%s/%v tick %d: %v", curveName, metric, tick, err)
				}
				want, wantA := oracleMatrix(t, pts, curve, order, p, radius, metric)
				if !oracle.SameMatrix(s.Matrix(), want) {
					t.Fatalf("%s/%v tick %d: maintained matrix diverged from oracle", curveName, metric, tick)
				}
				got, err := s.Assignment()
				if err != nil {
					t.Fatal(err)
				}
				for i := range wantA.Particles {
					if got.Particles[i] != wantA.Particles[i] || got.Ranks[i] != wantA.Ranks[i] {
						t.Fatalf("%s/%v tick %d: assignment position %d = (%v,%d), oracle (%v,%d)",
							curveName, metric, tick, i, got.Particles[i], got.Ranks[i],
							wantA.Particles[i], wantA.Ranks[i])
					}
				}
			}
			s.Release()
		}
	}
}

// TestStateRepartitionTick drives the gauge over the policy's
// high-water mark with a mass teleport and checks the rebuild path
// also lands exactly on the oracle, then that hysteresis holds the
// rebuild mechanism until the gauge falls below the low-water mark.
func TestStateRepartitionTick(t *testing.T) {
	curve, err := sfc.ByName("hilbert")
	if err != nil {
		t.Fatal(err)
	}
	const order, p, radius = 6, 11, 1
	pts := scatter(600, order, 5)
	s, err := NewState(Config{Curve: curve, Order: order, P: p, Radius: radius, Metric: geom.MetricChebyshev}, pts)
	if err != nil {
		t.Fatal(err)
	}
	// Teleport: reverse the point set (identities keep cells, but every
	// cell changes hands in curve order), guaranteeing massive owner
	// churn without collisions.
	flipped := append([]geom.Point(nil), pts...)
	for i, j := 0, len(flipped)-1; i < j; i, j = i+1, j-1 {
		flipped[i], flipped[j] = flipped[j], flipped[i]
	}
	st, err := s.Tick(flipped)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Repartitioned {
		t.Fatalf("teleport tick gauge %.3f did not trigger repartition", st.Gauge)
	}
	if s.Repartitions() != 1 {
		t.Fatalf("Repartitions = %d, want 1", s.Repartitions())
	}
	want, _ := oracleMatrix(t, flipped, curve, order, p, radius, geom.MetricChebyshev)
	if !oracle.SameMatrix(s.Matrix(), want) {
		t.Fatal("matrix diverged after repartition tick")
	}
	// A quiet tick after the storm: gauge 0 < Lo releases the rebuild
	// mechanism and the delta path resumes, still on the oracle.
	st, err = s.Tick(flipped)
	if err != nil {
		t.Fatal(err)
	}
	if st.Repartitioned {
		t.Fatalf("quiet tick (gauge %.3f) still repartitioned", st.Gauge)
	}
	r := rng.New(9)
	moved := driftStep(flipped, order, 0.03, r)
	if _, err := s.Tick(moved); err != nil {
		t.Fatal(err)
	}
	want, _ = oracleMatrix(t, moved, curve, order, p, radius, geom.MetricChebyshev)
	if !oracle.SameMatrix(s.Matrix(), want) {
		t.Fatal("matrix diverged after post-repartition delta tick")
	}
	s.Release()
}

// TestForceRebuildParity pins the cross-mechanism contract: a
// ForceRebuild state and a delta state fed the same trajectory report
// identical TickStats at every tick and hold identical matrices.
func TestForceRebuildParity(t *testing.T) {
	curve, err := sfc.ByName("gray")
	if err != nil {
		t.Fatal(err)
	}
	const order, p, radius = 6, 7, 2
	pts := scatter(700, order, 13)
	cfg := Config{Curve: curve, Order: order, P: p, Radius: radius, Metric: geom.MetricChebyshev}
	delta, err := NewState(cfg, pts)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ForceRebuild = true
	rebuild, err := NewState(cfg, pts)
	if err != nil {
		t.Fatal(err)
	}
	r := rng.New(21)
	for tick := 0; tick < 8; tick++ {
		pts = driftStep(pts, order, 0.08, r)
		a, err := delta.Tick(pts)
		if err != nil {
			t.Fatal(err)
		}
		b, err := rebuild.Tick(pts)
		if err != nil {
			t.Fatal(err)
		}
		if a != b {
			t.Fatalf("tick %d: delta stats %+v, rebuild stats %+v", tick, a, b)
		}
		if !oracle.SameMatrix(delta.Matrix(), rebuild.Matrix()) {
			t.Fatalf("tick %d: mechanisms disagree on the matrix", tick)
		}
	}
	delta.Release()
	rebuild.Release()
}

// TestStateACDMatchesBatch checks the in-place contraction against the
// batch NFI accumulator path on the same topology.
func TestStateACDMatchesBatch(t *testing.T) {
	curve, err := sfc.ByName("morton")
	if err != nil {
		t.Fatal(err)
	}
	const order, procOrder, radius = 6, 3, 1
	p := 1 << (2 * procOrder)
	pts := scatter(800, order, 3)
	s, err := NewState(Config{Curve: curve, Order: order, P: p, Radius: radius, Metric: geom.MetricChebyshev}, pts)
	if err != nil {
		t.Fatal(err)
	}
	torus := topology.NewTorus(procOrder, curve)
	dt := topology.NewDistanceTable(torus)
	r := rng.New(8)
	pts = driftStep(pts, order, 0.05, r)
	if _, err := s.Tick(pts); err != nil {
		t.Fatal(err)
	}
	got := s.ACD(dt)
	a, err := acd.Assign(pts, curve, order, p)
	if err != nil {
		t.Fatal(err)
	}
	want := oracle.NFI(a, torus, radius, geom.MetricChebyshev)
	if got != want {
		t.Fatalf("ACD accumulator: got %+v, want %+v", got, want)
	}
	s.Release()
}

// TestStateRejectsBadInput covers construction and tick validation.
func TestStateRejectsBadInput(t *testing.T) {
	curve, err := sfc.ByName("hilbert")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewState(Config{Curve: nil, Order: 4, P: 2}, scatter(10, 4, 1)); err == nil {
		t.Fatal("nil curve accepted")
	}
	if _, err := NewState(Config{Curve: curve, Order: 4, P: 0}, scatter(10, 4, 1)); err == nil {
		t.Fatal("p=0 accepted")
	}
	if _, err := NewState(Config{Curve: curve, Order: 4, P: 2}, nil); err == nil {
		t.Fatal("empty particles accepted")
	}
	dup := []geom.Point{{X: 1, Y: 1}, {X: 1, Y: 1}}
	if _, err := NewState(Config{Curve: curve, Order: 4, P: 2}, dup); err == nil {
		t.Fatal("duplicate cells accepted")
	}
	s, err := NewState(Config{Curve: curve, Order: 4, P: 2, Radius: 1, Metric: geom.MetricChebyshev}, scatter(10, 4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Tick(scatter(9, 4, 1)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// TestStateACDMultiMatchesPerTable is the incremental layer's fused
// Mutable contraction oracle: ACDMulti over all six topology kinds
// must return, per table, exactly what the single-table path (ACD)
// produces on an identically fresh table, and what the per-pair
// reference contraction of the maintained matrix gives.
func TestStateACDMultiMatchesPerTable(t *testing.T) {
	curve, err := sfc.ByName("hilbert")
	if err != nil {
		t.Fatal(err)
	}
	const order, procOrder, radius = 6, 3, 1
	p := 1 << (2 * procOrder)
	pts := scatter(900, order, 5)
	s, err := NewState(Config{Curve: curve, Order: order, P: p, Radius: radius, Metric: geom.MetricChebyshev}, pts)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Release()
	r := rng.New(23)
	for tick := 0; tick < 3; tick++ {
		pts = driftStep(pts, order, 0.05, r)
		if _, err := s.Tick(pts); err != nil {
			t.Fatal(err)
		}
	}
	topos := make([]topology.Topology, len(topology.Kinds))
	fusedTables := make([]*topology.DistanceTable, len(topology.Kinds))
	for i, kind := range topology.Kinds {
		topo, err := topology.New(kind, p, curve)
		if err != nil {
			t.Fatal(err)
		}
		topos[i] = topo
		fusedTables[i] = topology.NewDistanceTable(topo)
	}
	fused := s.ACDMulti(fusedTables)
	for i, topo := range topos {
		want := s.ACD(topology.NewDistanceTable(topo))
		if fused[i] != want {
			t.Fatalf("%s: fused ACDMulti %+v != sequential ACD %+v",
				topo.Name(), fused[i], want)
		}
		if ref := oracle.Contract(s.Matrix(), topo, 2); want != ref {
			t.Fatalf("%s: ACD %+v != reference contraction %+v", topo.Name(), want, ref)
		}
	}
}
