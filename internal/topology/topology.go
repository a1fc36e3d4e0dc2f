// Package topology implements the six communication network topologies
// studied in the paper (§II-B): bus (linear array), ring, mesh, torus,
// quadtree, and hypercube. Each exposes the shortest-path hop distance
// between processor ranks — the quantity the ACD metric averages.
//
// For the mesh and torus, processor ranks are placed onto the physical
// grid by a processor-order space-filling curve (§IV step 3): rank i
// sits at the grid cell the curve visits at position i. The remaining
// topologies use natural rank labels, as in the paper.
//
// Every distance function is analytic (O(1) or O(log p)); the tests
// cross-verify them against BFS over each flat network's links, which
// only the test files list.
package topology

import (
	"fmt"
	"math/bits"

	"sfcacd/internal/geom"
	"sfcacd/internal/obs"
	"sfcacd/internal/sfc"
)

// Distance-query volume counters. Distance itself is deliberately not
// instrumented per call: it sits in multi-million-call inner loops
// (fmmmodel's NFI/FFI traversals) where even one uncontended atomic
// add per call is a measurable fraction of the work. Query-dominated
// pipelines therefore tally locally — usually for free, as the event
// count of the acd.Accumulator they are filling — and flush in bulk
// through CountDistanceQueries.
var analyticQueries = obs.GetCounter("topology.distance.analytic")

// CountDistanceQueries records n analytic Distance calls answered by
// some topology. See the counter comment for why this is a bulk API.
func CountDistanceQueries(n uint64) {
	if n > 0 {
		analyticQueries.Add(n)
	}
}

// Topology is a network of P processors with a shortest-path hop
// metric over ranks 0..P-1.
type Topology interface {
	// Name returns the topology's canonical lower-case name.
	Name() string
	// P returns the number of processors.
	P() int
	// Distance returns the shortest-path hop count between the
	// processors ranked a and b. It is a metric: symmetric, zero iff
	// a == b, and satisfies the triangle inequality.
	Distance(a, b int) int
}

// checkRank is the cold path of the Distance guards: callers test the
// range with an inlinable concrete P() first, so the dynamic dispatch
// here is only paid on the way to a panic.
func checkRank(t Topology, r int) {
	if r < 0 || r >= t.P() {
		panic(fmt.Sprintf("topology: rank %d outside %s of %d processors", r, t.Name(), t.P()))
	}
}

// --- Bus (linear array) ---

// Bus is the paper's bus topology: processors on a line, each linked
// only to its two direct neighbors.
type Bus struct {
	n int
}

// NewBus returns a bus of p processors (p >= 1).
func NewBus(p int) *Bus {
	if p < 1 {
		panic("topology: bus needs at least 1 processor")
	}
	return &Bus{n: p}
}

// Name implements Topology.
func (b *Bus) Name() string { return "bus" }

// P implements Topology.
func (b *Bus) P() int { return b.n }

// Distance implements Topology.
func (b *Bus) Distance(x, y int) int {
	if uint(x) >= uint(b.P()) || uint(y) >= uint(b.P()) {
		checkRank(b, x)
		checkRank(b, y)
	}
	if x > y {
		return x - y
	}
	return y - x
}

// --- Ring ---

// Ring is a bus with an extra wrap link between the first and last
// processors.
type Ring struct {
	n int
}

// NewRing returns a ring of p processors (p >= 1).
func NewRing(p int) *Ring {
	if p < 1 {
		panic("topology: ring needs at least 1 processor")
	}
	return &Ring{n: p}
}

// Name implements Topology.
func (r *Ring) Name() string { return "ring" }

// P implements Topology.
func (r *Ring) P() int { return r.n }

// Distance implements Topology.
func (r *Ring) Distance(x, y int) int {
	if uint(x) >= uint(r.P()) || uint(y) >= uint(r.P()) {
		checkRank(r, x)
		checkRank(r, y)
	}
	d := x - y
	if d < 0 {
		d = -d
	}
	if wrap := r.n - d; wrap < d {
		return wrap
	}
	return d
}

// --- Mesh and Torus ---

// gridNet carries the shared state of the mesh and torus: a square
// 2^procOrder grid with an SFC-driven rank placement.
type gridNet struct {
	procOrder uint
	side      uint32
	coords    []geom.Point // rank -> grid position
	rankAt    []int32      // grid cell id -> rank
	placement string
}

func newGridNet(procOrder uint, placement sfc.Curve) gridNet {
	if procOrder > 15 {
		panic("topology: grid order too large")
	}
	side := geom.Side(procOrder)
	p := int(geom.Cells(procOrder))
	g := gridNet{
		procOrder: procOrder,
		side:      side,
		coords:    make([]geom.Point, p),
		rankAt:    make([]int32, p),
		placement: placement.Name(),
	}
	for rank := 0; rank < p; rank++ {
		pt := placement.Point(procOrder, uint64(rank))
		g.coords[rank] = pt
		g.rankAt[geom.CellID(pt, side)] = int32(rank)
	}
	return g
}

// Coord returns the grid position of a rank.
func (g *gridNet) Coord(rank int) geom.Point { return g.coords[rank] }

// RankAt returns the rank placed at a grid position.
func (g *gridNet) RankAt(pt geom.Point) int {
	return int(g.rankAt[geom.CellID(pt, g.side)])
}

// Side returns the grid side length.
func (g *gridNet) Side() uint32 { return g.side }

// Placement returns the name of the processor-order curve.
func (g *gridNet) Placement() string { return g.placement }

// Mesh is the 2D mesh/grid topology: a square grid of processors with
// links between horizontal and vertical neighbors.
type Mesh struct {
	gridNet
}

// NewMesh returns a 2^procOrder x 2^procOrder mesh (p = 4^procOrder
// processors) with ranks placed along the given processor-order curve.
func NewMesh(procOrder uint, placement sfc.Curve) *Mesh {
	return &Mesh{gridNet: newGridNet(procOrder, placement)}
}

// Name implements Topology.
func (m *Mesh) Name() string { return "mesh" }

// P implements Topology.
func (m *Mesh) P() int { return len(m.coords) }

// Distance implements Topology: the Manhattan distance between the
// ranks' grid positions.
func (m *Mesh) Distance(a, b int) int {
	if uint(a) >= uint(m.P()) || uint(b) >= uint(m.P()) {
		checkRank(m, a)
		checkRank(m, b)
	}
	return geom.Manhattan(m.coords[a], m.coords[b])
}

// torusLUTMaxSide bounds the delta-distance table: a side x side grid
// of uint16 (128 KiB at side 256). Beyond it the batched sum falls back
// to per-pair wrap arithmetic.
const torusLUTMaxSide = 256

// Torus is the mesh plus wrap-around links in both dimensions.
type Torus struct {
	gridNet
	// dlut[dy<<procOrder | dx] is the torus hop count for the
	// coordinate delta (dx, dy) taken mod side — the side is a power of
	// two, so the delta reduces with a mask and the whole wrapped
	// metric becomes one branch-free table load. Built only up to
	// torusLUTMaxSide; nil above it.
	dlut []uint16
}

// NewTorus returns a 2^procOrder x 2^procOrder torus with ranks placed
// along the given processor-order curve.
func NewTorus(procOrder uint, placement sfc.Curve) *Torus {
	t := &Torus{gridNet: newGridNet(procOrder, placement)}
	if t.side <= torusLUTMaxSide {
		t.dlut = make([]uint16, int(t.side)*int(t.side))
		for dy := uint32(0); dy < t.side; dy++ {
			for dx := uint32(0); dx < t.side; dx++ {
				t.dlut[dy<<procOrder|dx] = uint16(wrapDist(dx, 0, t.side) + wrapDist(dy, 0, t.side))
			}
		}
	}
	return t
}

// Name implements Topology.
func (t *Torus) Name() string { return "torus" }

// P implements Topology.
func (t *Torus) P() int { return len(t.coords) }

// Distance implements Topology: per-dimension wrapped Manhattan
// distance.
func (t *Torus) Distance(a, b int) int {
	if uint(a) >= uint(t.P()) || uint(b) >= uint(t.P()) {
		checkRank(t, a)
		checkRank(t, b)
	}
	ca, cb := t.coords[a], t.coords[b]
	return wrapDist(ca.X, cb.X, t.side) + wrapDist(ca.Y, cb.Y, t.side)
}

func wrapDist(a, b, side uint32) int {
	d := a - b
	if a < b {
		d = b - a
	}
	if wrap := side - d; wrap < d {
		return int(wrap)
	}
	return int(d)
}

// --- Hypercube ---

// Hypercube is the classical binary hypercube: p = 2^dims processors,
// ranks adjacent iff their labels differ in exactly one bit.
type Hypercube struct {
	dims uint
}

// NewHypercube returns a hypercube with 2^dims processors.
func NewHypercube(dims uint) *Hypercube {
	if dims > 30 {
		panic("topology: hypercube dimension too large")
	}
	return &Hypercube{dims: dims}
}

// Name implements Topology.
func (h *Hypercube) Name() string { return "hypercube" }

// P implements Topology.
func (h *Hypercube) P() int { return 1 << h.dims }

// Distance implements Topology: the Hamming distance of the labels.
func (h *Hypercube) Distance(a, b int) int {
	if uint(a) >= uint(h.P()) || uint(b) >= uint(h.P()) {
		checkRank(h, a)
		checkRank(h, b)
	}
	return bits.OnesCount32(uint32(a) ^ uint32(b))
}

// --- Quadtree network ---

// QuadtreeNet is the quadtree topology: p = 4^levels processors at the
// leaves of a complete 4-ary switch tree; every message travels up to
// the lowest common ancestor and back down, so the hop distance is
// twice the depth below the LCA. Leaf ranks are labeled in quadrant
// (Morton) order so that rank prefixes encode the tree structure.
type QuadtreeNet struct {
	levels uint
}

// NewQuadtreeNet returns a quadtree network with 4^levels processors.
func NewQuadtreeNet(levels uint) *QuadtreeNet {
	if levels > 15 {
		panic("topology: quadtree levels too large")
	}
	return &QuadtreeNet{levels: levels}
}

// Name implements Topology.
func (q *QuadtreeNet) Name() string { return "quadtree" }

// P implements Topology.
func (q *QuadtreeNet) P() int { return 1 << (2 * q.levels) }

// Levels returns the tree depth.
func (q *QuadtreeNet) Levels() uint { return q.levels }

// Distance implements Topology: 2 * (levels - common prefix length in
// base-4 digits).
func (q *QuadtreeNet) Distance(a, b int) int {
	if uint(a) >= uint(q.P()) || uint(b) >= uint(q.P()) {
		checkRank(q, a)
		checkRank(q, b)
	}
	if a == b {
		return 0
	}
	diff := uint32(a) ^ uint32(b)
	// Highest differing bit, rounded up to a whole base-4 digit pair.
	top := uint(bits.Len32(diff)) // 1-based bit index of highest set bit
	digits := (top + 1) / 2       // number of base-4 digits below and including the difference
	return int(2 * digits)
}

// --- Factories ---

// Kind names the six topology families.
var Kinds = []string{"bus", "ring", "mesh", "torus", "quadtree", "hypercube"}

// New constructs a topology by name with exactly p processors. Mesh,
// torus, and quadtree require p to be a power of 4; the hypercube
// requires a power of 2. placement is consulted only by mesh and torus
// (pass nil for natural row-major placement).
func New(name string, p int, placement sfc.Curve) (Topology, error) {
	if p < 1 {
		return nil, fmt.Errorf("topology: p = %d must be positive", p)
	}
	if placement == nil {
		placement = sfc.RowMajor
	}
	switch name {
	case "bus":
		return NewBus(p), nil
	case "ring":
		return NewRing(p), nil
	case "mesh", "torus", "quadtree":
		order, ok := quarterLog(p)
		if !ok {
			return nil, fmt.Errorf("topology: %s requires a power-of-4 processor count, got %d", name, p)
		}
		switch name {
		case "mesh":
			return NewMesh(order, placement), nil
		case "torus":
			return NewTorus(order, placement), nil
		default:
			return NewQuadtreeNet(order), nil
		}
	case "hypercube":
		if p&(p-1) != 0 {
			return nil, fmt.Errorf("topology: hypercube requires a power-of-2 processor count, got %d", p)
		}
		return NewHypercube(uint(bits.TrailingZeros32(uint32(p)))), nil
	}
	return nil, fmt.Errorf("topology: unknown topology %q", name)
}

// quarterLog returns m with p == 4^m, if such m exists.
func quarterLog(p int) (uint, bool) {
	if p <= 0 || p&(p-1) != 0 {
		return 0, false
	}
	tz := bits.TrailingZeros32(uint32(p))
	if tz%2 != 0 {
		return 0, false
	}
	return uint(tz / 2), true
}
