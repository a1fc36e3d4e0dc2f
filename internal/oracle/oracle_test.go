package oracle

import (
	"testing"

	"sfcacd/internal/acd"
	"sfcacd/internal/dist"
	"sfcacd/internal/geom"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

// These tests pin the oracle itself to the paper: the worked examples
// of §III and Figure 4, and brute-force scans that use nothing but the
// definitions.

func TestBuildRankTreeMinRank(t *testing.T) {
	// Particles in three quadrants of a 4x4 grid with known ranks.
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(1, 1), // lower-left quadrant
		geom.Pt(3, 0),                // lower-right
		geom.Pt(2, 3), geom.Pt(3, 3), // upper-right
	}
	tr := NewRankTree(2, pts, []int32{4, 2, 7, 1, 9})
	for _, tc := range []struct {
		l    uint
		c    geom.Point
		want int32
	}{
		{2, geom.Pt(0, 0), 4}, {2, geom.Pt(1, 1), 2}, {2, geom.Pt(2, 2), -1},
		{1, geom.Pt(0, 0), 2}, {1, geom.Pt(1, 0), 7}, {1, geom.Pt(1, 1), 1}, {1, geom.Pt(0, 1), -1},
		{0, geom.Pt(0, 0), 1},
	} {
		if got := tr.Rep(tc.l, tc.c); got != tc.want {
			t.Errorf("Rep(%d, %v) = %d, want %d", tc.l, tc.c, got, tc.want)
		}
	}
	if got := len(tr.Cells(2)); got != 5 {
		t.Errorf("level 2 has %d occupied cells, want 5", got)
	}
	if got := len(tr.Cells(0)); got != 1 {
		t.Errorf("root level has %d occupied cells, want 1", got)
	}
}

// TestRankTreeMinProperty: on random particle/rank sets, every cell's
// representative is the minimum rank among the particles it contains,
// found by scanning all particles per cell.
func TestRankTreeMinProperty(t *testing.T) {
	const order = 4
	for seed := uint64(1); seed <= 20; seed++ {
		n := int(seed*7)%50 + 1
		pts, err := dist.SampleUnique(dist.Uniform, rng.New(seed), order, n)
		if err != nil {
			t.Fatal(err)
		}
		ranks := make([]int32, n)
		rr := rng.New(seed ^ 0xABCD)
		for i := range ranks {
			ranks[i] = int32(rr.Intn(16))
		}
		tr := NewRankTree(order, pts, ranks)
		for l := uint(0); l <= order; l++ {
			side := geom.Side(l)
			for y := uint32(0); y < side; y++ {
				for x := uint32(0); x < side; x++ {
					want := int32(-1)
					for i, p := range pts {
						if p.X>>(order-l) == x && p.Y>>(order-l) == y && (want == -1 || ranks[i] < want) {
							want = ranks[i]
						}
					}
					if got := tr.Rep(l, geom.Pt(x, y)); got != want {
						t.Fatalf("seed %d: Rep(%d, %d, %d) = %d, want %d", seed, l, x, y, got, want)
					}
				}
			}
		}
	}
}

func TestCellsOrderDeterministic(t *testing.T) {
	tr := NewRankTree(2, []geom.Point{geom.Pt(2, 1), geom.Pt(1, 2), geom.Pt(0, 0)}, []int32{0, 1, 2})
	got := tr.Cells(2)
	want := []geom.Point{geom.Pt(0, 0), geom.Pt(2, 1), geom.Pt(1, 2)}
	if len(got) != len(want) {
		t.Fatalf("cells %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("cells %v, want %v", got, want)
		}
	}
}

// TestInteractionListMatchesFigure4 checks the worked example in the
// paper's Figure 4(a): on the 4x4 level, a corner cell's interaction
// list is "every node not in its quadrant" (12 cells), and an interior
// cell like node 6 has 7 cells.
func TestInteractionListMatchesFigure4(t *testing.T) {
	corner := InteractionList(2, geom.Pt(0, 0))
	if len(corner) != 12 {
		t.Fatalf("corner interaction list has %d cells, want 12", len(corner))
	}
	for _, c := range corner {
		if c.X < 2 && c.Y < 2 {
			t.Fatalf("corner list includes own-quadrant cell %v", c)
		}
	}
	interior := InteractionList(2, geom.Pt(2, 1))
	if len(interior) != 7 {
		t.Fatalf("interior interaction list has %d cells, want 7", len(interior))
	}
	for _, c := range interior {
		if geom.Chebyshev(c, geom.Pt(2, 1)) <= 1 {
			t.Fatalf("interior list includes adjacent cell %v", c)
		}
	}
}

// TestInteractionListSymmetric: if b is in a's list, a is in b's list.
func TestInteractionListSymmetric(t *testing.T) {
	for l := uint(2); l <= 4; l++ {
		side := geom.Side(l)
		lists := make(map[geom.Point]map[geom.Point]bool)
		for y := uint32(0); y < side; y++ {
			for x := uint32(0); x < side; x++ {
				m := make(map[geom.Point]bool)
				for _, q := range InteractionList(l, geom.Pt(x, y)) {
					m[q] = true
				}
				lists[geom.Pt(x, y)] = m
			}
		}
		for a, m := range lists {
			for b := range m {
				if !lists[b][a] {
					t.Fatalf("level %d: %v in list of %v but not vice versa", l, b, a)
				}
			}
		}
	}
}

// TestInteractionListTotalSizeKnown compares the summed list sizes of
// a level against a scan of all cell pairs: well separated, with
// adjacent (or equal) parents.
func TestInteractionListTotalSizeKnown(t *testing.T) {
	for l := uint(2); l <= 4; l++ {
		side := geom.Side(l)
		got := 0
		for y := uint32(0); y < side; y++ {
			for x := uint32(0); x < side; x++ {
				got += len(InteractionList(l, geom.Pt(x, y)))
			}
		}
		want := 0
		for ay := uint32(0); ay < side; ay++ {
			for ax := uint32(0); ax < side; ax++ {
				for by := uint32(0); by < side; by++ {
					for bx := uint32(0); bx < side; bx++ {
						a, b := geom.Pt(ax, ay), geom.Pt(bx, by)
						if geom.Chebyshev(a, b) > 1 && geom.Chebyshev(geom.Pt(ax/2, ay/2), geom.Pt(bx/2, by/2)) <= 1 {
							want++
						}
					}
				}
			}
		}
		if got != want {
			t.Fatalf("level %d: interaction pairs %d, brute force %d", l, got, want)
		}
	}
}

func TestInteractionListLevelBelow2Empty(t *testing.T) {
	for l := uint(0); l < 2; l++ {
		if list := InteractionList(l, geom.Pt(0, 0)); len(list) != 0 {
			t.Fatalf("level %d list %v, want empty", l, list)
		}
	}
}

// TestInteractionListSkipsEmptyCells: only occupied members exchange.
// With particles in two opposite corners of a 4x4 grid, the level-2
// interaction-list traffic is exactly the two directions of that pair.
func TestInteractionListSkipsEmptyCells(t *testing.T) {
	a, err := acd.FromOwners([]geom.Point{geom.Pt(0, 0), geom.Pt(3, 3)}, []int32{0, 1}, 2, 2)
	if err != nil {
		t.Fatal(err)
	}
	res := FFI(a, topology.NewBus(2))
	if res.InteractionList.Count != 2 || res.InteractionList.Sum != 2 {
		t.Fatalf("interaction list = %+v, want 2 events of 1 hop", res.InteractionList)
	}
	// Both level-1 cells link to the root (rank 0): one zero-hop and one
	// one-hop link; the level-2 cells link to their own level-1 cells.
	if res.Interpolation.Count != 4 || res.Interpolation.Sum != 1 || res.Anterpolation != res.Interpolation {
		t.Fatalf("interpolation %+v anterpolation %+v", res.Interpolation, res.Anterpolation)
	}
}

// TestNFIMatchesAllPairs pins the window scan to the all-pairs
// definition: every ordered particle pair within the radius.
func TestNFIMatchesAllPairs(t *testing.T) {
	const order = 5
	pts, err := dist.SampleUnique(dist.Normal, rng.New(6), order, 150)
	if err != nil {
		t.Fatal(err)
	}
	a, err := acd.Assign(pts, sfc.Gray, order, 16)
	if err != nil {
		t.Fatal(err)
	}
	topo := topology.NewTorus(2, sfc.Hilbert)
	for _, radius := range []int{0, 1, 2, 4, 40} {
		for _, m := range []geom.Metric{geom.MetricChebyshev, geom.MetricManhattan} {
			var want acd.Accumulator
			for i := range a.Particles {
				for j := range a.Particles {
					if i != j && m.Dist(a.Particles[i], a.Particles[j]) <= radius {
						want.Add(topo.Distance(int(a.Ranks[i]), int(a.Ranks[j])))
					}
				}
			}
			if got := NFI(a, topo, radius, m); got != want {
				t.Fatalf("r=%d %s: window scan %+v, all pairs %+v", radius, m, got, want)
			}
		}
	}
}

// TestFFIHandComputed checks the fully occupied 2x2 grid with one
// particle per processor on a bus: four leaf-to-root links of 0..3
// hops and no interaction lists.
func TestFFIHandComputed(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(1, 0), geom.Pt(0, 1), geom.Pt(1, 1)}
	a, err := acd.Assign(pts, sfc.Hilbert, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	res := FFI(a, topology.NewBus(4))
	if res.InteractionList.Count != 0 || res.Interpolation.Count != 4 || res.Interpolation.Sum != 6 {
		t.Fatalf("FFI = %+v", res)
	}
}
