// Package oracle holds the naive reference definitions of the paper's
// FMM communication model (§III–IV) that the production path
// (internal/keynav enumeration, internal/commmat aggregation and
// contraction, driven by internal/fmmmodel) is tested against.
//
// Every function follows its definition literally and shares no code
// with the optimized path: a cell->rank map probed over the full
// (2r+1)^2 window of every particle, per-level minimum-rank maps, the
// interaction list enumerated from the parent-adjacency definition, and
// one topo.Distance call per event. The matrix references (Contract,
// SameMatrix) read a matrix through a small interface, so the package
// never imports internal/commmat and commmat's own tests can use it.
// Only _test.go files import the package; no binary may depend on it.
package oracle

import (
	"slices"

	"sfcacd/internal/acd"
	"sfcacd/internal/geom"
	"sfcacd/internal/topology"
)

// CellRanks maps every occupied finest-level cell of the assignment to
// the rank owning its particle.
func CellRanks(a *acd.Assignment) map[geom.Point]int32 {
	m := make(map[geom.Point]int32, a.N())
	for i, p := range a.Particles {
		m[p] = a.Ranks[i]
	}
	return m
}

// VisitNFIPairs calls fn(src, dst) for every ordered near-field event:
// for each particle, every other occupied cell q of its window with
// m.Dist(particle, q) <= radius, from the particle's rank to q's.
func VisitNFIPairs(a *acd.Assignment, radius int, m geom.Metric, fn func(src, dst int32)) {
	owner := CellRanks(a)
	side := int(a.Side())
	for i, p := range a.Particles {
		for dy := -radius; dy <= radius; dy++ {
			for dx := -radius; dx <= radius; dx++ {
				x, y := int(p.X)+dx, int(p.Y)+dy
				if (dx == 0 && dy == 0) || x < 0 || y < 0 || x >= side || y >= side {
					continue
				}
				q := geom.Pt(uint32(x), uint32(y))
				if m.Dist(p, q) > radius {
					continue
				}
				if r, ok := owner[q]; ok {
					fn(a.Ranks[i], r)
				}
			}
		}
	}
}

// NFI is the near-field accumulator by definition: one topo.Distance
// per ordered event of VisitNFIPairs.
func NFI(a *acd.Assignment, topo topology.Topology, radius int, m geom.Metric) acd.Accumulator {
	var acc acd.Accumulator
	VisitNFIPairs(a, radius, m, func(src, dst int32) {
		acc.Add(topo.Distance(int(src), int(dst)))
	})
	return acc
}

// RankTree is the representative quadtree by definition: Reps[l] maps
// every occupied cell of level l (side 2^l) to the minimum rank owning
// a particle inside it.
type RankTree struct {
	Order uint
	Reps  []map[geom.Point]int32
}

// NewRankTree builds the per-level minimum-rank maps of particles at
// the given finest order.
func NewRankTree(order uint, pts []geom.Point, ranks []int32) *RankTree {
	t := &RankTree{Order: order, Reps: make([]map[geom.Point]int32, order+1)}
	for l := range t.Reps {
		t.Reps[l] = make(map[geom.Point]int32)
	}
	for i, p := range pts {
		for l := uint(0); l <= order; l++ {
			c := geom.Pt(p.X>>(order-l), p.Y>>(order-l))
			if r, ok := t.Reps[l][c]; !ok || ranks[i] < r {
				t.Reps[l][c] = ranks[i]
			}
		}
	}
	return t
}

// Rep returns the representative rank of cell c at level l, or -1 if
// the cell holds no particle.
func (t *RankTree) Rep(l uint, c geom.Point) int32 {
	if r, ok := t.Reps[l][c]; ok {
		return r
	}
	return -1
}

// Cells returns the occupied cells of level l in row-major order.
func (t *RankTree) Cells(l uint) []geom.Point {
	cells := make([]geom.Point, 0, len(t.Reps[l]))
	for c := range t.Reps[l] {
		cells = append(cells, c)
	}
	slices.SortFunc(cells, func(a, b geom.Point) int {
		if a.Y != b.Y {
			return int(a.Y) - int(b.Y)
		}
		return int(a.X) - int(b.X)
	})
	return cells
}

// InteractionList returns the interaction list of cell c at level l,
// occupied or not, in row-major order: the children of c's parent and
// of the parent's Chebyshev neighbors that are not Chebyshev-adjacent
// to c (nor c itself). Levels 0 and 1 have empty lists.
func InteractionList(l uint, c geom.Point) []geom.Point {
	if l < 2 {
		return nil
	}
	pside := int(geom.Side(l - 1))
	px, py := int(c.X/2), int(c.Y/2)
	var list []geom.Point
	for ny := py - 1; ny <= py+1; ny++ {
		for cy := 2 * ny; cy < 2*ny+2; cy++ {
			for nx := px - 1; nx <= px+1; nx++ {
				if nx < 0 || ny < 0 || nx >= pside || ny >= pside {
					continue
				}
				for cx := 2 * nx; cx < 2*nx+2; cx++ {
					q := geom.Pt(uint32(cx), uint32(cy))
					if geom.Chebyshev(c, q) > 1 {
						list = append(list, q)
					}
				}
			}
		}
	}
	return list
}

// FFIResult is the far-field breakdown by communication type. Its
// fields match fmmmodel.FFIResult, so one converts to the other.
type FFIResult struct {
	Interpolation   acd.Accumulator
	Anterpolation   acd.Accumulator
	InteractionList acd.Accumulator
}

// Far-field event types passed to visitFFI's callback.
const (
	interpolation = iota
	anterpolation
	interactionList
)

// visitFFI walks the far-field events of the assignment's tree: every
// occupied cell of levels Order..1 sends to its parent's representative
// (interpolation) and receives from it (anterpolation); every occupied
// cell of levels 2..Order sends to each occupied member of its
// interaction list.
func visitFFI(a *acd.Assignment, fn func(kind int, src, dst int32)) {
	t := NewRankTree(a.Order, a.Particles, a.Ranks)
	for l := t.Order; l >= 1; l-- {
		for _, c := range t.Cells(l) {
			rep, parent := t.Rep(l, c), t.Rep(l-1, geom.Pt(c.X/2, c.Y/2))
			fn(interpolation, rep, parent)
			fn(anterpolation, parent, rep)
		}
	}
	for l := uint(2); l <= t.Order; l++ {
		for _, c := range t.Cells(l) {
			for _, q := range InteractionList(l, c) {
				if other := t.Rep(l, q); other >= 0 {
					fn(interactionList, t.Rep(l, c), other)
				}
			}
		}
	}
}

// VisitFFIPairs calls fn(src, dst) for every ordered far-field event of
// the three types.
func VisitFFIPairs(a *acd.Assignment, fn func(src, dst int32)) {
	visitFFI(a, func(_ int, src, dst int32) { fn(src, dst) })
}

// FFI is the far-field breakdown by definition: one topo.Distance per
// ordered event of each type.
func FFI(a *acd.Assignment, topo topology.Topology) FFIResult {
	var res FFIResult
	accs := [...]*acd.Accumulator{&res.Interpolation, &res.Anterpolation, &res.InteractionList}
	visitFFI(a, func(kind int, src, dst int32) {
		accs[kind].Add(topo.Distance(int(src), int(dst)))
	})
	return res
}

// Matrix is the read surface of a communication matrix that the
// matrix references below need: commmat's Matrix and Mutable both
// provide it. Visit must yield every pair with a nonzero count once.
type Matrix interface {
	P() int
	Events() uint64
	Pairs() int
	Visit(fn func(src, dst int32, n uint32))
}

// Contract is a matrix contraction by definition: every pair's count,
// times weight, events of one topo.Distance each.
func Contract(m Matrix, topo topology.Topology, weight int) acd.Accumulator {
	var acc acd.Accumulator
	m.Visit(func(src, dst int32, n uint32) {
		acc.AddN(topo.Distance(int(src), int(dst)), weight*int(n))
	})
	return acc
}

// SameMatrix reports whether two matrices hold the same aggregation:
// the same rank count, event total, and per-pair counts in the same
// Visit order. Storage form does not matter.
func SameMatrix(a, b Matrix) bool {
	if a.P() != b.P() || a.Events() != b.Events() || a.Pairs() != b.Pairs() {
		return false
	}
	type pair struct {
		src, dst int32
		n        uint32
	}
	var as, bs []pair
	a.Visit(func(src, dst int32, n uint32) { as = append(as, pair{src, dst, n}) })
	b.Visit(func(src, dst int32, n uint32) { bs = append(bs, pair{src, dst, n}) })
	return slices.Equal(as, bs)
}
