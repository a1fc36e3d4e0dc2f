// Package keynav is the key-space neighbor engine: it answers the
// neighbor and interaction-list queries of the FMM communication model
// by arithmetic on a radix-sorted array of Morton keys, in the style
// of Holzmüller's algebraic neighbor-finding, instead of probing a
// cell->rank table or walking a quadtree.
//
// The Index holds every particle as a (Morton key, rank) pair sorted
// by key, searched through a small top-level radix directory that cuts
// a binary search to a couple of iterations inside one cache line.
// On top of the sorted finest level, each coarser level is one linear
// scan: the level-l key of a cell is its finest key shifted right by
// 2(Order-l), so the particles of a cell form a contiguous prefix
// group and the cell's representative (minimum owning rank, the §III
// convention) is the group minimum. The per-level slabs replace
// dense 4^l per-level arrays of a quadtree: memory is proportional to
// the number of occupied cells, not to the grid. The same particles
// are also kept in row-major order, which turns the near-field
// neighborhood walk into a sequential sweep with one cursor per
// window row.
//
// The index is the only neighbor machinery of the model. Its tests pin
// every query family to exact equality of the produced event multisets
// against the naive definitions in internal/oracle.
package keynav

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"sfcacd/internal/geom"
	"sfcacd/internal/obs"
	"sfcacd/internal/sfc"
)

var buildCounter = obs.GetCounter("keynav.builds")

// level is one resolution level of the index: occupied cells as sorted
// level keys, their representative ranks, the start of each cell's
// child group in the next-finer level, each cell's child summary byte,
// and a radix directory over the keys. At the finest level keys/reps
// alias the particle arrays and childStart and sub are unused.
type level struct {
	keys       []uint64
	reps       []int32
	childStart []int32 // len(keys)+1; indices into the next-finer level
	sub        []uint8 // len(keys); subMask occupancy bits | subUniform
	dir        []int32 // len (1<<dirBits)+1; bucket b covers dir[b]..dir[b+1]
	shift      uint    // key -> directory bucket shift
}

// A cell's sub byte summarizes its child group: bits 0-3 flag the
// occupied child sub-positions (the low two child key bits), and
// subUniform is set when every child has the cell's representative.
const (
	subMask    = 0x0f
	subUniform = 0x80
)

// find returns the position of key k in the level, or -1. The
// directory narrows the search to one bucket (a few entries), so the
// binary search typically resolves within a single cache line.
func (lv *level) find(k uint64) int {
	b := k >> lv.shift
	lo, hi := int(lv.dir[b]), int(lv.dir[b+1])
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if lv.keys[m] < k {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(lv.keys) && lv.keys[lo] == k {
		return lo
	}
	return -1
}

// buildDir (re)builds the level's radix directory for the given total
// key width in bits.
func (lv *level) buildDir(keyBits uint) {
	db := dirBits(len(lv.keys), keyBits)
	lv.shift = keyBits - db
	size := (1 << db) + 1
	lv.dir = grow(lv.dir, size)
	for i := range lv.dir {
		lv.dir[i] = 0
	}
	// Count per bucket (shifted one slot so the prefix sum lands on
	// bucket starts), then accumulate.
	for _, k := range lv.keys {
		lv.dir[(k>>lv.shift)+1]++
	}
	for i := 1; i < size; i++ {
		lv.dir[i] += lv.dir[i-1]
	}
}

// dirBits sizes a directory at roughly one bucket per four keys,
// bounded by the key width and a 4M-entry cap.
func dirBits(n int, keyBits uint) uint {
	b := uint(bits.Len(uint(n)))
	if b > 2 {
		b -= 2
	} else {
		b = 0
	}
	if b > keyBits {
		b = keyBits
	}
	if b > 22 {
		b = 22
	}
	return b
}

// grow returns s resized to n, reallocating only when the capacity is
// short. Contents are unspecified.
func grow[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// Index is the key-space occupancy index of one assignment: particles
// as sorted (Morton key, rank) pairs plus the per-level representative
// slabs, and the same particles in row-major order for the near-field
// sweep. Build with Build; recycle with Release.
type Index struct {
	// Order is the finest resolution order (grid side 2^Order).
	Order uint
	// lv[l] holds level l; lv[Order] is the particle level.
	lv []level
	// keys/ranks back the finest level (also aliased by lv[Order]).
	keys  []uint64
	ranks []int32
	// Row-major particle order: row y holds positions
	// rowStart[y]..rowStart[y+1] of rowX/rowRank, in increasing x.
	rowStart []int32
	rowX     []uint32
	rowRank  []int32
}

// indexPool recycles Index slabs between builds: parallel sweep cells
// each build one per assignment, so pooling keeps the allocator out of
// the sweep hot path.
var indexPool = sync.Pool{New: func() any { return new(Index) }}

// Build constructs the index from particle cells and their owning
// ranks (parallel slices, as held by acd.Assignment). The inputs are
// not modified and not retained.
func Build(order uint, pts []geom.Point, ranks []int32) *Index {
	ix := indexPool.Get().(*Index)
	ix.Rebuild(order, pts, ranks)
	return ix
}

// Rebuild refills the index in place from new particle data, reusing
// every slab the previous build left behind. The incremental pipeline
// holds one Index per maintained curve across timesteps and rebuilds
// it on repartition ticks; in-place reuse keeps those rebuilds out of
// both the allocator and the shared build pool.
func (ix *Index) Rebuild(order uint, pts []geom.Point, ranks []int32) {
	if len(pts) != len(ranks) {
		panic("keynav: pts and ranks length mismatch")
	}
	defer obs.StartSpan("keybuild").End()
	buildCounter.Inc()
	n := len(pts)
	ix.Order = order
	ix.keys = grow(ix.keys, n)
	ix.ranks = grow(ix.ranks, n)
	sorted := true
	for i, p := range pts {
		k := sfc.MortonKey(p.X, p.Y)
		ix.keys[i] = k
		ix.ranks[i] = ranks[i]
		if i > 0 && k < ix.keys[i-1] {
			sorted = false
		}
	}
	// Morton particle order arrives sorted; the other curves pay one
	// radix pair sort.
	if !sorted {
		sortPairs(ix.keys, ix.ranks, 2*order)
	}
	ix.buildLevels()
	ix.buildRows()
}

// buildRows derives the row-major order by a stable counting sort of
// the Morton-sorted particles on y. For a fixed y the Morton key grows
// with x, so each row comes out in increasing x.
func (ix *Index) buildRows() {
	side := int(geom.Side(ix.Order))
	n := len(ix.keys)
	ix.rowStart = grow(ix.rowStart, side+1)
	clear(ix.rowStart)
	ix.rowX = grow(ix.rowX, n)
	ix.rowRank = grow(ix.rowRank, n)
	for _, k := range ix.keys {
		_, y := sfc.MortonCoords(k)
		ix.rowStart[y+1]++
	}
	for y := 1; y <= side; y++ {
		ix.rowStart[y] += ix.rowStart[y-1]
	}
	// Scatter with rowStart[y] as row y's cursor; afterwards it holds
	// the row's end, so shifting by one restores the starts.
	for i, k := range ix.keys {
		x, y := sfc.MortonCoords(k)
		c := ix.rowStart[y]
		ix.rowX[c], ix.rowRank[c] = x, ix.ranks[i]
		ix.rowStart[y] = c + 1
	}
	copy(ix.rowStart[1:], ix.rowStart[:side])
	ix.rowStart[0] = 0
}

// buildLevels derives every coarser level from the finest by one
// linear scan per level over right-shifted keys, taking prefix-group
// minima as representatives.
func (ix *Index) buildLevels() {
	order := ix.Order
	if cap(ix.lv) < int(order)+1 {
		lv := make([]level, order+1)
		copy(lv, ix.lv)
		ix.lv = lv
	}
	ix.lv = ix.lv[:order+1]
	// A level that was the finest of an earlier, lower-order build
	// still aliases the particle slab; reusing it as a coarse level
	// would overwrite the particles it is derived from.
	for l := range ix.lv[:order] {
		if ix.lv[l].childStart == nil {
			ix.lv[l].keys, ix.lv[l].reps = nil, nil
		}
	}
	fin := &ix.lv[order]
	fin.keys, fin.reps, fin.childStart = ix.keys, ix.ranks, nil
	fin.buildDir(2 * order)
	for l := int(order) - 1; l >= 0; l-- {
		src := &ix.lv[l+1]
		dst := &ix.lv[l]
		// A parent has at least one child, so the level can only
		// shrink; sizing at the child count avoids a counting pass.
		dst.keys = grow(dst.keys, len(src.keys))[:0]
		dst.reps = grow(dst.reps, len(src.keys))[:0]
		dst.childStart = grow(dst.childStart, len(src.keys)+1)[:0]
		dst.sub = grow(dst.sub, len(src.keys))[:0]
		for i, k := range src.keys {
			pk := k >> 2
			if j := len(dst.keys) - 1; j >= 0 && dst.keys[j] == pk {
				dst.sub[j] |= 1 << (k & 3)
				// A child rank that differs from the running minimum
				// means the children do not all share one rank.
				if r := src.reps[i]; r != dst.reps[j] {
					dst.sub[j] &^= subUniform
					dst.reps[j] = min(dst.reps[j], r)
				}
				continue
			}
			dst.keys = append(dst.keys, pk)
			dst.reps = append(dst.reps, src.reps[i])
			dst.childStart = append(dst.childStart, int32(i))
			dst.sub = append(dst.sub, subUniform|1<<(k&3))
		}
		dst.childStart = append(dst.childStart, int32(len(src.keys)))
		dst.buildDir(2 * uint(l))
	}
}

// Release returns the index's slabs to the build pool. The index must
// not be used afterwards. Only owners that know the index is dead (the
// sweep scheduler's cells, via acd.Assignment.Release) should call it.
func (ix *Index) Release() {
	if ix == nil {
		return
	}
	indexPool.Put(ix)
}

// N returns the particle count.
func (ix *Index) N() int { return len(ix.keys) }

// LevelLen returns the number of occupied cells at a level.
func (ix *Index) LevelLen(l uint) int { return len(ix.lv[l].keys) }

// RankAt returns the rank owning the particle in the given finest cell,
// or -1 if the cell is empty.
func (ix *Index) RankAt(p geom.Point) int32 {
	fin := &ix.lv[ix.Order]
	if i := fin.find(sfc.MortonKey(p.X, p.Y)); i >= 0 {
		return fin.reps[i]
	}
	return -1
}

// Rep returns the representative (minimum) rank of cell (x, y) at the
// given level, or -1 if the cell is empty, answered by key search.
func (ix *Index) Rep(l uint, x, y uint32) int32 {
	if l > ix.Order {
		panic(fmt.Sprintf("keynav: level %d beyond order %d", l, ix.Order))
	}
	side := geom.Side(l)
	if x >= side || y >= side {
		panic(fmt.Sprintf("keynav: cell (%d,%d) outside level %d", x, y, l))
	}
	if i := ix.lv[l].find(sfc.MortonKey(x, y)); i >= 0 {
		return ix.lv[l].reps[i]
	}
	return -1
}

// VisitUpperNeighborPairs calls fn(rank, neighborRank) for every
// occupied cell q within metric distance radius of particle i that
// follows i's cell in row-major order, for every particle i in
// positions [lo, hi) of the row-major particle order: the rows
// dy = 0..radius above the cell, clamped at the grid edges, starting
// at x+1 on the cell's own row. Every unordered pair within the radius
// is thus seen once, from its row-major-lower endpoint, so over the
// full particle range the emitted rank pairs are the near-field upper
// event stream.
//
// The particles of a row are visited in increasing x, so the left
// edge of each window row only moves right: one cursor per window row
// rides along, and the pass reads the rows sequentially.
func (ix *Index) VisitUpperNeighborPairs(lo, hi, radius int, m geom.Metric, fn func(rank, neighbor int32)) {
	if radius <= 0 || lo >= hi {
		return
	}
	side := len(ix.rowStart) - 1
	cur := make([]int32, radius+1)
	y := sort.Search(side, func(y int) bool { return int(ix.rowStart[y+1]) > lo })
	for i := lo; i < hi; y++ {
		for dy := 1; dy <= radius && y+dy < side; dy++ {
			cur[dy] = ix.rowStart[y+dy]
		}
		rowEnd := int(ix.rowStart[y+1])
		for ; i < hi && i < rowEnd; i++ {
			x := int(ix.rowX[i])
			mine := ix.rowRank[i]
			for j := i + 1; j < rowEnd && int(ix.rowX[j]) <= x+radius; j++ {
				fn(mine, ix.rowRank[j])
			}
			for dy := 1; dy <= radius && y+dy < side; dy++ {
				span := radius
				if m == geom.MetricManhattan {
					span = radius - dy
				}
				c, end := cur[dy], ix.rowStart[y+dy+1]
				for c < end && int(ix.rowX[c]) < x-span {
					c++
				}
				cur[dy] = c
				for ; c < end && int(ix.rowX[c]) <= x+span; c++ {
					fn(mine, ix.rowRank[c])
				}
			}
		}
	}
}

// VisitParentLinks calls fn(parentRep, rep, n) for the occupied cells
// of level l >= 1 whose parents lie in positions [plo, phi) of level
// l-1 — the interpolation link stream, n links at a time. A uniform
// parent (every child has its representative) reports its whole child
// group as one weighted self-link; any other parent reports each child
// link once. Child groups are contiguous in the level-l slab, so the
// pass is one linear scan.
func (ix *Index) VisitParentLinks(l uint, plo, phi int, fn func(parentRep, rep int32, n uint32)) {
	if l < 1 || plo >= phi {
		return
	}
	par := &ix.lv[l-1]
	ch := &ix.lv[l]
	for j := plo; j < phi; j++ {
		pr, sub := par.reps[j], par.sub[j]
		if sub&subUniform != 0 {
			fn(pr, pr, uint32(bits.OnesCount8(sub&subMask)))
			continue
		}
		for i := par.childStart[j]; i < par.childStart[j+1]; i++ {
			fn(pr, ch.reps[i], 1)
		}
	}
}

// parentUpper lists the row-major-upper neighbor offsets of a parent
// cell; visiting each unordered pair of Chebyshev-adjacent parents
// exactly once partitions the interaction lists, because every
// interaction-list pair at level l lives between two distinct adjacent
// cells at level l-1 (children of one parent are mutually adjacent and
// never in each other's lists).
var parentUpper = [4]struct{ dx, dy int32 }{{1, 0}, {-1, 1}, {0, 1}, {1, 1}}

// ilCross[o][sa] is the bitmask of child sub-positions sb of the o-th
// upper parent neighbor whose cells are interaction-list partners
// (Chebyshev distance > 1) of the child at sub-position sa. Sub
// positions are the low two key bits: bit 0 = x, bit 1 = y.
var ilCross [4][4]uint8

// ilCount[o][ma][mb] is the number of interaction-list pairs between
// child groups with occupancy masks ma and mb of a parent and its o-th
// upper neighbor: the sum over sa in ma of |ilCross[o][sa] & mb|. It is
// at most 15 (the diagonal neighbor of a full parent).
var ilCount [4][16][16]uint8

// sibDelta[sa][o] is the key delta of the o-th upper parent neighbor
// when it stays inside sa's aligned sibling quad (0 when the offset
// crosses the quad boundary and needs a directory probe): incrementing
// an even coordinate only sets the low dilated bit, so the sibling's
// key is the parent's plus the sub-position difference.
var sibDelta = [4][4]uint8{
	{1, 0, 2, 3}, // (even, even): +x, +y, and +x+y are siblings
	{0, 1, 2, 0}, // (odd, even): -x+y and +y are siblings
	{1, 0, 0, 0}, // (even, odd): +x is a sibling
	{0, 0, 0, 0}, // (odd, odd): every upper offset leaves the quad
}

func init() {
	for o, off := range parentUpper {
		for sa := 0; sa < 4; sa++ {
			for sb := 0; sb < 4; sb++ {
				dx := int(2*off.dx) + sb&1 - sa&1
				dy := int(2*off.dy) + sb>>1 - sa>>1
				if max(abs(dx), abs(dy)) > 1 {
					ilCross[o][sa] |= 1 << sb
				}
			}
		}
		for ma := range ilCount[o] {
			for mb := range ilCount[o][ma] {
				for sa := 0; sa < 4; sa++ {
					if ma>>sa&1 != 0 {
						ilCount[o][ma][mb] += uint8(bits.OnesCount8(ilCross[o][sa] & uint8(mb)))
					}
				}
			}
		}
	}
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}

// VisitUpperILPairs calls fn(rep, otherRep, n) for the unordered
// interaction-list pairs of occupied cells at level l >= 2 whose
// parents lie in positions [plo, phi) of level l-1 (a pair is
// attributed to its row-major-lower parent); over all calls, n sums to
// the number of such pairs between the two representatives. Instead of
// scanning the 6x6 candidate window around every cell, the pass
// enumerates adjacent parent pairs — four upper neighbor probes per
// occupied parent — and crosses their child groups, which are
// contiguous runs of the level-l slab, filtering sibling-adjacency by
// the precomputed ilCross masks.
//
// Child groups that share one representative collapse: two uniform
// parents report their whole crossing as one call weighted from
// ilCount, and a uniform neighbor takes one call per child of the lower
// parent. Only pairs of mixed groups are crossed child by child.
func (ix *Index) VisitUpperILPairs(l uint, plo, phi int, fn func(rep, other int32, n uint32)) {
	if l < 2 {
		return
	}
	par := &ix.lv[l-1]
	ch := &ix.lv[l]
	pside := int32(geom.Side(l - 1))
	for j := plo; j < phi; j++ {
		kj := par.keys[j]
		px, py := sfc.MortonCoords(kj)
		aLo, aHi := par.childStart[j], par.childStart[j+1]
		subA := par.sub[j]
		sa := kj & 3
		for o, off := range parentUpper {
			var jq int
			if d := sibDelta[sa][o]; d != 0 {
				// The neighbor is a sibling within the same aligned
				// 2x2 quad (always inside the grid): its key is kj+d,
				// and the only keys in (kj, kj+3] are siblings, so the
				// next <= 3 slab entries decide occupancy without a
				// directory probe.
				kt := kj + uint64(d)
				jq = -1
				for t := j + 1; t < len(par.keys) && par.keys[t] <= kt; t++ {
					if par.keys[t] == kt {
						jq = t
						break
					}
				}
			} else {
				qx := int32(px) + off.dx
				qy := int32(py) + off.dy
				if qx < 0 || qx >= pside || qy >= pside {
					continue
				}
				jq = par.find(sfc.MortonKey(uint32(qx), uint32(qy)))
			}
			if jq < 0 {
				continue
			}
			subB := par.sub[jq]
			if subB&subUniform != 0 {
				rb, mb := par.reps[jq], subB&subMask
				if subA&subUniform != 0 {
					if n := ilCount[o][subA&subMask][mb]; n != 0 {
						fn(par.reps[j], rb, uint32(n))
					}
					continue
				}
				for ai := aLo; ai < aHi; ai++ {
					if n := bits.OnesCount8(ilCross[o][ch.keys[ai]&3] & mb); n != 0 {
						fn(ch.reps[ai], rb, uint32(n))
					}
				}
				continue
			}
			bLo, bHi := par.childStart[jq], par.childStart[jq+1]
			for ai := aLo; ai < aHi; ai++ {
				bm := ilCross[o][ch.keys[ai]&3]
				ra := ch.reps[ai]
				for bi := bLo; bi < bHi; bi++ {
					if bm>>(ch.keys[bi]&3)&1 != 0 {
						fn(ra, ch.reps[bi], 1)
					}
				}
			}
		}
	}
}
