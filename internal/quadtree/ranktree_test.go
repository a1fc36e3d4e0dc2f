package quadtree

import (
	"math/rand"
	"sort"
	"testing"

	"sfcacd/internal/geom"
	"sfcacd/internal/keynav"
)

// These tests pin the representative quadtree — every occupied cell
// labelled with the minimum rank owning a particle inside it — as the
// key-space index serves it, against the Cell algebra of this package:
// representatives gathered along Parent chains, and interaction lists
// built from Parent, Child and Chebyshev adjacency.

// cellReps returns the representative of every occupied cell on every
// level, found by walking each particle's finest cell up to the root.
func cellReps(order uint, pts []geom.Point, ranks []int32) map[Cell]int32 {
	reps := map[Cell]int32{}
	for i, p := range pts {
		c := Cell{Level: order, X: p.X, Y: p.Y}
		for {
			if r, ok := reps[c]; !ok || ranks[i] < r {
				reps[c] = ranks[i]
			}
			if c.Level == 0 {
				break
			}
			c = c.Parent()
		}
	}
	return reps
}

// interactionList returns the cells of c's interaction list: children
// of c's parent and of the parent's neighbors that are neither c nor
// adjacent to it.
func interactionList(c Cell) []Cell {
	if c.Level < 2 {
		return nil
	}
	p := c.Parent()
	pside := int(geom.Side(p.Level))
	var list []Cell
	for dy := -1; dy <= 1; dy++ {
		for dx := -1; dx <= 1; dx++ {
			nx, ny := int(p.X)+dx, int(p.Y)+dy
			if nx < 0 || ny < 0 || nx >= pside || ny >= pside {
				continue
			}
			n := Cell{Level: p.Level, X: uint32(nx), Y: uint32(ny)}
			for i := 0; i < 4; i++ {
				q := n.Child(i)
				if geom.Chebyshev(geom.Pt(c.X, c.Y), geom.Pt(q.X, q.Y)) > 1 {
					list = append(list, q)
				}
			}
		}
	}
	return list
}

// randomTree draws n distinct cells of an order-`order` grid and
// assigns them p ranks in row-major chunks.
func randomTree(order uint, n, p int, seed int64) ([]geom.Point, []int32) {
	rng := rand.New(rand.NewSource(seed))
	side := geom.Side(order)
	perm := rng.Perm(int(side) * int(side))[:n]
	sort.Ints(perm)
	pts := make([]geom.Point, n)
	ranks := make([]int32, n)
	for i, id := range perm {
		pts[i] = geom.Pt(uint32(id%int(side)), uint32(id/int(side)))
		ranks[i] = int32(i * p / n)
	}
	return pts, ranks
}

func TestBuildRankTreeMinRank(t *testing.T) {
	// Particles in three quadrants of a 4x4 grid with known ranks.
	pts := []geom.Point{
		geom.Pt(0, 0), geom.Pt(1, 1), // lower-left quadrant
		geom.Pt(3, 0),                // lower-right
		geom.Pt(2, 3), geom.Pt(3, 3), // upper-right
	}
	ranks := []int32{4, 2, 7, 1, 9}
	ix := keynav.Build(2, pts, ranks)
	defer ix.Release()
	for _, tc := range []struct {
		c    Cell
		want int32
	}{
		// Finest level: exactly the particle cells.
		{Cell{2, 0, 0}, 4}, {Cell{2, 1, 1}, 2}, {Cell{2, 2, 2}, -1},
		// Level 1: 2x2 quadrants take the min of their children.
		{Cell{1, 0, 0}, 2}, {Cell{1, 1, 0}, 7}, {Cell{1, 1, 1}, 1}, {Cell{1, 0, 1}, -1},
		// Root: global minimum.
		{Root, 1},
	} {
		if got := ix.Rep(tc.c.Level, tc.c.X, tc.c.Y); got != tc.want {
			t.Errorf("rep %v = %d, want %d", tc.c, got, tc.want)
		}
	}
	for c, want := range cellReps(2, pts, ranks) {
		if got := ix.Rep(c.Level, c.X, c.Y); got != want {
			t.Errorf("rep %v = %d, Parent-chain minimum %d", c, got, want)
		}
	}
}

func TestNonEmptyAndVisit(t *testing.T) {
	pts := []geom.Point{geom.Pt(0, 0), geom.Pt(7, 7), geom.Pt(3, 4)}
	ranks := []int32{0, 1, 2}
	ix := keynav.Build(3, pts, ranks)
	defer ix.Release()
	if got := ix.LevelLen(3); got != 3 {
		t.Errorf("finest level has %d occupied cells", got)
	}
	if got := ix.LevelLen(0); got != 1 {
		t.Errorf("root level has %d occupied cells", got)
	}
	perLevel := make([]int, 4)
	for c := range cellReps(3, pts, ranks) {
		perLevel[c.Level]++
		if ix.Rep(c.Level, c.X, c.Y) < 0 {
			t.Errorf("occupied cell %v has no representative", c)
		}
	}
	for l, n := range perLevel {
		if got := ix.LevelLen(uint(l)); got != n {
			t.Errorf("level %d: index holds %d cells, Parent chains reach %d", l, got, n)
		}
	}
}

// TestVisitUpperInteractionPairsClosure: the upper-pair traversal plus
// its mirror is exactly the full interaction-list enumeration — every
// (cell, partner) pair of every occupied cell, in both directions.
func TestVisitUpperInteractionPairsClosure(t *testing.T) {
	const order = 5
	pts, ranks := randomTree(order, 300, 64, 1)
	reps := cellReps(order, pts, ranks)
	ix := keynav.Build(order, pts, ranks)
	defer ix.Release()
	for level := uint(2); level <= order; level++ {
		full := map[[2]int32]int{}
		for c, rep := range reps {
			if c.Level != level {
				continue
			}
			for _, q := range interactionList(c) {
				if other, ok := reps[q]; ok {
					full[[2]int32{rep, other}]++
				}
			}
		}
		upper := map[[2]int32]int{}
		ix.VisitUpperILPairs(level, 0, ix.LevelLen(level-1), func(rep, other int32, n uint32) {
			upper[[2]int32{rep, other}] += int(n)
			upper[[2]int32{other, rep}] += int(n)
		})
		if len(full) != len(upper) {
			t.Fatalf("level %d: %d directed pairs from full enumeration, %d from upper closure", level, len(full), len(upper))
		}
		for k, n := range full {
			if upper[k] != n {
				t.Fatalf("level %d: pair %v seen %d times via upper closure, want %d", level, k, upper[k], n)
			}
		}
	}
}

// TestVisitUpperInteractionPairsStripes: cutting the parent level into
// stripes of positions covers exactly the same pairs as one full-range
// call.
func TestVisitUpperInteractionPairsStripes(t *testing.T) {
	const order, level = 5, 4
	pts, ranks := randomTree(order, 250, 32, 2)
	ix := keynav.Build(order, pts, ranks)
	defer ix.Release()
	plen := ix.LevelLen(level - 1)
	whole := map[[2]int32]int{}
	ix.VisitUpperILPairs(level, 0, plen, func(rep, other int32, n uint32) {
		whole[[2]int32{rep, other}] += int(n)
	})
	striped := map[[2]int32]int{}
	for lo := 0; lo < plen; lo += 3 {
		ix.VisitUpperILPairs(level, lo, min(lo+3, plen), func(rep, other int32, n uint32) {
			striped[[2]int32{rep, other}] += int(n)
		})
	}
	if len(whole) != len(striped) {
		t.Fatalf("stripes found %d pairs, whole range %d", len(striped), len(whole))
	}
	for k, n := range whole {
		if striped[k] != n {
			t.Fatalf("pair %v: stripes %d, whole %d", k, striped[k], n)
		}
	}
}
