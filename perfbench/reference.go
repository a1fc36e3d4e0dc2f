package main

import (
	"fmt"
	"sort"

	"sfcacd/internal/geom"
	"sfcacd/internal/sfc"
)

// This file is the benchmark's own naive reference for the paper's
// model (§IV): particles ordered by sorting their curve indices, dealt
// to balanced chunks, then one ordered loop over every communication
// event with neighbors found by a brute-force window scan and hop
// distances computed from the curve placement of the ranks. It shares
// no code with the program's ordering, partitioning, neighbor indexes,
// communication matrices or topology tables, so agreement with the
// program's output is an independent check of all of them.

// refAcc tallies events like acd.Accumulator.
type refAcc struct{ sum, count, zeros uint64 }

func (a *refAcc) add(hops int) {
	a.sum += uint64(hops)
	a.count++
	if hops == 0 {
		a.zeros++
	}
}

func (a refAcc) acd() float64 {
	if a.count == 0 {
		return 0
	}
	return float64(a.sum) / float64(a.count)
}

// refHops returns the hop distance of the named topology over p ranks;
// mesh and torus place rank r at cell placement.Point(procOrder, r) of
// their square grid.
func refHops(kind string, p int, placement sfc.Curve) (func(a, b int) int, error) {
	procOrder := uint(0)
	for 1<<(2*procOrder) < p {
		procOrder++
	}
	side := 1 << procOrder
	coords := func() []geom.Point {
		c := make([]geom.Point, p)
		for r := range c {
			c[r] = placement.Point(procOrder, uint64(r))
		}
		return c
	}
	switch kind {
	case "bus":
		return func(a, b int) int { return abs(a - b) }, nil
	case "ring":
		return func(a, b int) int { return min(abs(a-b), p-abs(a-b)) }, nil
	case "mesh":
		c := coords()
		return func(a, b int) int {
			return abs(int(c[a].X)-int(c[b].X)) + abs(int(c[a].Y)-int(c[b].Y))
		}, nil
	case "torus":
		c := coords()
		wrap := func(d int) int { return min(abs(d), side-abs(d)) }
		return func(a, b int) int {
			return wrap(int(c[a].X)-int(c[b].X)) + wrap(int(c[a].Y)-int(c[b].Y))
		}, nil
	case "quadtree":
		// Leaves are labeled by their base-4 path from the root; a
		// message climbs to the lowest common ancestor and back down.
		return func(a, b int) int {
			d := 0
			for lvl := int(procOrder) - 1; lvl >= 0; lvl-- {
				if (a>>(2*lvl))&3 != (b>>(2*lvl))&3 {
					d = lvl + 1
					break
				}
			}
			return 2 * d
		}, nil
	case "hypercube":
		return func(a, b int) int {
			d := 0
			for x := a ^ b; x != 0; x >>= 1 {
				d += x & 1
			}
			return d
		}, nil
	}
	return nil, fmt.Errorf("reference: unknown topology %q", kind)
}

// refAssign orders the particles along the curve by sorting their curve
// indices and gives rank r the ordered positions [r*n/p, (r+1)*n/p).
func refAssign(pts []geom.Point, curve sfc.Curve, order uint, p int) ([]geom.Point, []int32) {
	idx := make([]uint64, len(pts))
	perm := make([]int, len(pts))
	for i, pt := range pts {
		idx[i] = curve.Index(order, pt)
		perm[i] = i
	}
	sort.Slice(perm, func(a, b int) bool { return idx[perm[a]] < idx[perm[b]] })
	n := len(pts)
	sorted := make([]geom.Point, n)
	ranks := make([]int32, n)
	for r := 0; r < p; r++ {
		for j := r * n / p; j < (r+1)*n/p; j++ {
			sorted[j] = pts[perm[j]]
			ranks[j] = int32(r)
		}
	}
	return sorted, ranks
}

// refGrid maps every cell of a 2^order grid to the rank of the particle
// in it, or -1.
func refGrid(order uint, pts []geom.Point, ranks []int32) []int32 {
	side := 1 << order
	g := make([]int32, side*side)
	for i := range g {
		g[i] = -1
	}
	for i, pt := range pts {
		g[int(pt.Y)*side+int(pt.X)] = ranks[i]
	}
	return g
}

// refNFI returns, per topology, the near-field events: every ordered
// pair of particles whose cells are within Chebyshev distance r.
func refNFI(order uint, pts []geom.Point, ranks []int32, r int, hops []func(a, b int) int) []refAcc {
	side := 1 << order
	g := refGrid(order, pts, ranks)
	out := make([]refAcc, len(hops))
	for i, pt := range pts {
		for dy := -r; dy <= r; dy++ {
			for dx := -r; dx <= r; dx++ {
				x, y := int(pt.X)+dx, int(pt.Y)+dy
				if (dx == 0 && dy == 0) || x < 0 || y < 0 || x >= side || y >= side {
					continue
				}
				if other := g[y*side+x]; other >= 0 {
					for t, h := range hops {
						out[t].add(h(int(ranks[i]), int(other)))
					}
				}
			}
		}
	}
	return out
}

// refFFI returns, per topology, the far-field events: every occupied
// cell's representative (the minimum rank in it) exchanging with its
// parent's representative in both directions at every level, plus the
// interaction list — the children of the parent's neighbors that are
// not adjacent to the cell — at levels 2 and finer.
func refFFI(order uint, pts []geom.Point, ranks []int32, hops []func(a, b int) int) []refAcc {
	levels := make([][]int32, order+1)
	levels[order] = refGrid(order, pts, ranks)
	for l := int(order) - 1; l >= 0; l-- {
		side, fine := 1<<l, levels[l+1]
		cur := make([]int32, side*side)
		for i := range cur {
			cur[i] = -1
		}
		for y := 0; y < 2*side; y++ {
			for x := 0; x < 2*side; x++ {
				if r := fine[y*2*side+x]; r >= 0 {
					c := &cur[(y/2)*side+x/2]
					if *c < 0 || r < *c {
						*c = r
					}
				}
			}
		}
		levels[l] = cur
	}
	out := make([]refAcc, len(hops))
	for l := int(order); l >= 1; l-- {
		side := 1 << l
		for y := 0; y < side; y++ {
			for x := 0; x < side; x++ {
				rep := levels[l][y*side+x]
				if rep < 0 {
					continue
				}
				parent := levels[l-1][(y/2)*(side/2)+x/2]
				for t, h := range hops {
					d := h(int(rep), int(parent))
					out[t].add(d) // interpolation, child to parent
					out[t].add(d) // anterpolation, parent to child
				}
				if l < 2 {
					continue
				}
				for ny := 2 * (y/2 - 1); ny < 2*(y/2+2); ny++ {
					for nx := 2 * (x/2 - 1); nx < 2*(x/2+2); nx++ {
						if nx < 0 || ny < 0 || nx >= side || ny >= side {
							continue
						}
						if max(abs(nx-x), abs(ny-y)) <= 1 {
							continue
						}
						if other := levels[l][ny*side+nx]; other >= 0 {
							for t, h := range hops {
								out[t].add(h(int(rep), int(other)))
							}
						}
					}
				}
			}
		}
	}
	return out
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
