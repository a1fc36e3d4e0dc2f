package quadtree

import (
	"testing"
	"testing/quick"

	"sfcacd/internal/dist"
	"sfcacd/internal/geom"
	"sfcacd/internal/rng"
)

// TestQuickLinearTreePartition: for random point sets, the adaptive
// tree is always a partition, counts always total, and Locate is
// always right.
func TestQuickLinearTreePartition(t *testing.T) {
	f := func(seed uint64, nRaw, leafRaw uint8) bool {
		const order = 6
		n := int(nRaw)%200 + 1
		maxLeaf := int(leafRaw)%8 + 1
		pts, err := dist.SampleUnique(dist.Uniform, rng.New(seed), order, n)
		if err != nil {
			return false
		}
		tree := BuildLinear(order, pts, maxLeaf)
		var pos uint64
		for _, leaf := range tree.Leaves {
			lo, hi := leaf.MortonRange(order)
			if lo != pos {
				return false
			}
			pos = hi
		}
		if pos != geom.Cells(order) {
			return false
		}
		if tree.TotalParticles() != n {
			return false
		}
		for _, p := range pts {
			if !tree.Leaves[tree.Locate(p)].ContainsPoint(order, p) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestQuickBalancePreservesPartitionAndCounts: balancing any random
// tree keeps the partition, the 2:1 condition, and the particle total.
func TestQuickBalancePreservesPartitionAndCounts(t *testing.T) {
	f := func(seed uint64, nRaw uint8) bool {
		const order = 6
		n := int(nRaw)%60 + 1
		pts, err := dist.SampleUnique(dist.Exponential, rng.New(seed), order, n)
		if err != nil {
			return false
		}
		tree := BuildLinear(order, pts, 1)
		bal := tree.Balance()
		if !bal.IsBalanced() {
			return false
		}
		var pos uint64
		for _, leaf := range bal.Leaves {
			lo, hi := leaf.MortonRange(order)
			if lo != pos {
				return false
			}
			pos = hi
		}
		return pos == geom.Cells(order) && bal.TotalParticles() == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestQuickCellAlgebra: Parent/Child/Contains satisfy their defining
// identities for random cells.
func TestQuickCellAlgebra(t *testing.T) {
	f := func(levelRaw, xRaw, yRaw uint16, child uint8) bool {
		level := uint(levelRaw%8) + 1
		side := geom.Side(level)
		c := Cell{Level: level, X: uint32(xRaw) % side, Y: uint32(yRaw) % side}
		ch := c.Child(int(child % 4))
		if ch.Parent() != c || !c.Contains(ch) || ch.Contains(c) {
			return false
		}
		if !c.Parent().Contains(c) {
			return false
		}
		// Sibling cells never contain each other.
		for i := 0; i < 4; i++ {
			s := c.Parent().Child(i)
			if s != c && (s.Contains(c) || c.Contains(s)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
