// Package quadtree provides a linear compressed quadtree in the style
// of Sundar, Sampath & Biros (the paper's reference [20]): adaptive
// leaves as Morton-ordered cells, with 2:1 balancing.
package quadtree

import (
	"fmt"
	"slices"
	"sort"

	"sfcacd/internal/geom"
	"sfcacd/internal/sfc"
)

// Cell identifies a quadtree cell: a level (0 = root) and the cell's
// coordinates on the 2^Level x 2^Level grid of that level.
type Cell struct {
	Level uint
	X, Y  uint32
}

// Root is the level-0 cell covering the whole domain.
var Root = Cell{Level: 0}

// String renders the cell as "L<level>(x,y)".
func (c Cell) String() string { return fmt.Sprintf("L%d(%d,%d)", c.Level, c.X, c.Y) }

// Parent returns the cell's parent. Calling Parent on the root panics.
func (c Cell) Parent() Cell {
	if c.Level == 0 {
		panic("quadtree: root has no parent")
	}
	return Cell{Level: c.Level - 1, X: c.X / 2, Y: c.Y / 2}
}

// Child returns the i-th child (i in 0..3, Morton order: x is the low
// bit).
func (c Cell) Child(i int) Cell {
	if i < 0 || i > 3 {
		panic("quadtree: child index out of range")
	}
	return Cell{Level: c.Level + 1, X: 2*c.X + uint32(i&1), Y: 2*c.Y + uint32(i>>1)}
}

// Contains reports whether c contains d (every cell contains itself).
func (c Cell) Contains(d Cell) bool {
	if d.Level < c.Level {
		return false
	}
	shift := d.Level - c.Level
	return d.X>>shift == c.X && d.Y>>shift == c.Y
}

// ContainsPoint reports whether the finest-resolution point p (on the
// grid of the given order) lies inside c.
func (c Cell) ContainsPoint(order uint, p geom.Point) bool {
	if c.Level > order {
		panic("quadtree: cell finer than resolution")
	}
	shift := order - c.Level
	return p.X>>shift == c.X && p.Y>>shift == c.Y
}

// MortonRange returns the half-open range of finest-level Morton codes
// covered by c at resolution order.
func (c Cell) MortonRange(order uint) (lo, hi uint64) {
	if c.Level > order {
		panic("quadtree: cell finer than resolution")
	}
	shift := 2 * (order - c.Level)
	base := sfc.Morton.Index(c.Level, geom.Pt(c.X, c.Y))
	return base << shift, (base + 1) << shift
}

// LinearTree is a linear ("compressed") quadtree in the style of
// Sundar, Sampath & Biros: the sorted list of leaf cells — possibly of
// mixed levels — that partition the domain, refined so that no leaf
// holds more than a configured number of particles (or is at the
// finest resolution). Leaves are stored in Morton order of their
// covered ranges, which makes point location a binary search.
type LinearTree struct {
	// Order is the finest resolution order.
	Order uint
	// Leaves are the partition cells in Morton order.
	Leaves []Cell
	// Counts[i] is the number of particles inside Leaves[i].
	Counts []int
	// starts[i] is the first finest-level Morton code covered by
	// Leaves[i]; parallel to Leaves.
	starts []uint64
}

// BuildLinear constructs the adaptive linear quadtree over the given
// particles: starting from the root, any cell holding more than
// maxPerLeaf particles is split (until the finest level, where cells
// are never split — matching the paper's one-particle-per-finest-cell
// assumption when maxPerLeaf is 1 and particles are unique).
func BuildLinear(order uint, pts []geom.Point, maxPerLeaf int) *LinearTree {
	if maxPerLeaf < 1 {
		panic("quadtree: maxPerLeaf must be >= 1")
	}
	codes := make([]uint64, len(pts))
	for i, p := range pts {
		codes[i] = sfc.Morton.Index(order, p)
	}
	slices.Sort(codes)
	t := &LinearTree{Order: order}
	t.refine(Root, codes, maxPerLeaf)
	t.starts = make([]uint64, len(t.Leaves))
	for i, leaf := range t.Leaves {
		t.starts[i], _ = leaf.MortonRange(order)
	}
	return t
}

// refine recursively splits cell c over the (sorted) particle codes it
// covers.
func (t *LinearTree) refine(c Cell, codes []uint64, maxPerLeaf int) {
	if len(codes) <= maxPerLeaf || c.Level == t.Order {
		t.Leaves = append(t.Leaves, c)
		t.Counts = append(t.Counts, len(codes))
		return
	}
	for i := 0; i < 4; i++ {
		child := c.Child(i)
		lo, hi := child.MortonRange(t.Order)
		a := sort.Search(len(codes), func(j int) bool { return codes[j] >= lo })
		b := sort.Search(len(codes), func(j int) bool { return codes[j] >= hi })
		t.refine(child, codes[a:b], maxPerLeaf)
	}
}

// Locate returns the index of the leaf containing point p.
func (t *LinearTree) Locate(p geom.Point) int {
	code := sfc.Morton.Index(t.Order, p)
	// The leaf is the last one whose start is <= code.
	i := sort.Search(len(t.starts), func(j int) bool { return t.starts[j] > code }) - 1
	return i
}

// Depth returns the maximum leaf level.
func (t *LinearTree) Depth() uint {
	var d uint
	for _, l := range t.Leaves {
		if l.Level > d {
			d = l.Level
		}
	}
	return d
}

// TotalParticles returns the sum of leaf counts.
func (t *LinearTree) TotalParticles() int {
	n := 0
	for _, c := range t.Counts {
		n += c
	}
	return n
}
