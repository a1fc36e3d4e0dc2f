package keynav_test

import (
	"fmt"
	"sort"
	"testing"

	"sfcacd/internal/acd"
	"sfcacd/internal/dist"
	"sfcacd/internal/geom"
	"sfcacd/internal/keynav"
	"sfcacd/internal/oracle"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
)

// The naive definitions in internal/oracle are the reference: every
// query family of the key-space engine is pinned here to exact
// equality — same ranks, same representative per cell, same event
// multisets — across curves (sorted and unsorted key input), seeds,
// radii, and chunkings of the work range.

func buildAssignment(t *testing.T, curve sfc.Curve, order uint, n, p int, seed uint64) *acd.Assignment {
	t.Helper()
	pts, err := dist.SampleUnique(dist.Uniform, rng.New(seed), order, n)
	if err != nil {
		t.Fatal(err)
	}
	a, err := acd.Assign(pts, curve, order, p)
	if err != nil {
		t.Fatal(err)
	}
	return a
}

var testCurves = []sfc.Curve{sfc.RowMajor, sfc.Morton, sfc.Gray, sfc.Hilbert}

// TestIndexRankAtMatchesAssignment probes every grid cell against the
// assignment's particle ownership.
func TestIndexRankAtMatchesAssignment(t *testing.T) {
	const order, n, p = 5, 300, 16
	for _, curve := range testCurves {
		a := buildAssignment(t, curve, order, n, p, 7)
		owner := oracle.CellRanks(a)
		ix := keynav.Build(a.Order, a.Particles, a.Ranks)
		side := geom.Side(order)
		for y := uint32(0); y < side; y++ {
			for x := uint32(0); x < side; x++ {
				q := geom.Pt(x, y)
				want, ok := owner[q]
				if !ok {
					want = -1
				}
				if got := ix.RankAt(q); got != want {
					t.Fatalf("%s: RankAt%v = %d, oracle %d", curve.Name(), q, got, want)
				}
			}
		}
		ix.Release()
	}
}

// TestIndexRepMatchesRankTree probes every cell of every level against the
// oracle's per-level minimum-rank maps.
func TestIndexRepMatchesRankTree(t *testing.T) {
	const order, n, p = 5, 300, 16
	for _, curve := range testCurves {
		a := buildAssignment(t, curve, order, n, p, 11)
		ix := keynav.Build(a.Order, a.Particles, a.Ranks)
		tree := oracle.NewRankTree(a.Order, a.Particles, a.Ranks)
		for l := uint(0); l <= order; l++ {
			side := geom.Side(l)
			for y := uint32(0); y < side; y++ {
				for x := uint32(0); x < side; x++ {
					got, want := ix.Rep(l, x, y), tree.Rep(l, geom.Pt(x, y))
					if got != want {
						t.Fatalf("%s: Rep(%d,%d,%d) = %d, oracle %d", curve.Name(), l, x, y, got, want)
					}
				}
			}
			if got, want := ix.LevelLen(l), len(tree.Cells(l)); got != want {
				t.Fatalf("%s: LevelLen(%d) = %d, oracle %d", curve.Name(), l, got, want)
			}
		}
		ix.Release()
	}
}

// pairKey canonicalizes an unordered rank pair for multiset counting.
func pairKey(a, b int32) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

// orderedMultiset counts an ordered event stream by unordered pair. The
// relations the upper visitors enumerate are symmetric, so each upper
// pair must appear exactly twice here.
func orderedMultiset(visit func(fn func(src, dst int32))) map[uint64]int {
	m := map[uint64]int{}
	visit(func(src, dst int32) { m[pairKey(src, dst)]++ })
	return m
}

// oracleIL returns the oracle's ordered interaction-list stream of one
// level, by unordered pair.
func oracleIL(tree *oracle.RankTree, l uint) map[uint64]int {
	return orderedMultiset(func(fn func(src, dst int32)) {
		for _, c := range tree.Cells(l) {
			for _, q := range oracle.InteractionList(l, c) {
				if other := tree.Rep(l, q); other >= 0 {
					fn(tree.Rep(l, c), other)
				}
			}
		}
	})
}

// TestVisitUpperNeighborPairsMatchesOracle compares the near-field
// upper event multiset against the oracle's window scan, across
// metrics, radii (including radius beyond the grid side), and
// worker-style chunkings of the particle range.
func TestVisitUpperNeighborPairsMatchesOracle(t *testing.T) {
	const order, n, p = 5, 300, 16
	side := geom.Side(order)
	for _, curve := range testCurves {
		a := buildAssignment(t, curve, order, n, p, 13)
		ix := keynav.Build(a.Order, a.Particles, a.Ranks)
		for _, m := range []geom.Metric{geom.MetricChebyshev, geom.MetricManhattan} {
			for _, radius := range []int{0, 1, 2, 3, int(side), int(side) + 3} {
				want := orderedMultiset(func(fn func(src, dst int32)) {
					oracle.VisitNFIPairs(a, radius, m, fn)
				})
				for _, chunk := range []int{a.N(), 1, 7} {
					got := map[uint64]int{}
					for lo := 0; lo < a.N(); lo += chunk {
						hi := min(lo+chunk, a.N())
						ix.VisitUpperNeighborPairs(lo, hi, radius, m, func(rank, nb int32) {
							got[pairKey(rank, nb)] += 2
						})
					}
					if !mapsEqual(got, want) {
						t.Fatalf("%s %s r=%d chunk=%d: near-field multiset mismatch (got %d keys, want %d)",
							curve.Name(), m, radius, chunk, len(got), len(want))
					}
				}
			}
		}
		ix.Release()
	}
}

// oracleLinks returns the oracle's interpolation links of one level,
// by unordered (parent, child) representative pair.
func oracleLinks(tree *oracle.RankTree, l uint) map[uint64]int {
	m := map[uint64]int{}
	for _, c := range tree.Cells(l) {
		m[pairKey(tree.Rep(l-1, geom.Pt(c.X/2, c.Y/2)), tree.Rep(l, c))]++
	}
	return m
}

// TestVisitParentLinksMatchesTree compares the interpolation link
// multiset per level against the oracle tree's cell walk.
func TestVisitParentLinksMatchesTree(t *testing.T) {
	const order, n, p = 5, 300, 16
	for _, curve := range testCurves {
		a := buildAssignment(t, curve, order, n, p, 17)
		ix := keynav.Build(a.Order, a.Particles, a.Ranks)
		tree := oracle.NewRankTree(a.Order, a.Particles, a.Ranks)
		for l := uint(1); l <= order; l++ {
			want := oracleLinks(tree, l)
			plen := ix.LevelLen(l - 1)
			for _, chunk := range []int{plen, 1, 5} {
				got := map[uint64]int{}
				for lo := 0; lo < plen; lo += chunk {
					hi := min(lo+chunk, plen)
					ix.VisitParentLinks(l, lo, hi, func(parent, rep int32, n uint32) {
						got[pairKey(parent, rep)] += int(n)
					})
				}
				if !mapsEqual(got, want) {
					t.Fatalf("%s l=%d chunk=%d: parent-link multiset mismatch", curve.Name(), l, chunk)
				}
			}
		}
		ix.Release()
	}
}

// TestVisitUpperILPairsMatchesTree compares the interaction-list pair
// multiset per level against the oracle's definition, both full-range
// and chunked over parent positions.
func TestVisitUpperILPairsMatchesTree(t *testing.T) {
	const order = 5
	for _, curve := range testCurves {
		for _, tc := range []struct {
			n, p int
			seed uint64
		}{{300, 16, 19}, {12, 4, 23}, {1, 1, 29}} {
			a := buildAssignment(t, curve, order, tc.n, tc.p, tc.seed)
			ix := keynav.Build(a.Order, a.Particles, a.Ranks)
			tree := oracle.NewRankTree(a.Order, a.Particles, a.Ranks)
			for l := uint(2); l <= order; l++ {
				want := oracleIL(tree, l)
				plen := ix.LevelLen(l - 1)
				for _, chunk := range []int{plen, 1, 3} {
					got := map[uint64]int{}
					for lo := 0; lo < plen; lo += chunk {
						hi := min(lo+chunk, plen)
						ix.VisitUpperILPairs(l, lo, hi, func(rep, other int32, n uint32) {
							got[pairKey(rep, other)] += 2 * int(n)
						})
					}
					if !mapsEqual(got, want) {
						t.Fatalf("%s n=%d l=%d chunk=%d: IL multiset mismatch (got %d, want %d ordered events)",
							curve.Name(), tc.n, l, chunk, count(got), count(want))
					}
				}
			}
			ix.Release()
		}
	}
}

// farFieldCalls runs both weighted far-field visitors over every level
// of the index and checks their expanded multisets against the oracle
// tree. It returns the number of callbacks each visitor made.
func farFieldCalls(t *testing.T, name string, ix *keynav.Index, tree *oracle.RankTree) (links, ils int) {
	t.Helper()
	for l := uint(1); l <= ix.Order; l++ {
		got := map[uint64]int{}
		ix.VisitParentLinks(l, 0, ix.LevelLen(l-1), func(parent, rep int32, n uint32) {
			if n == 0 {
				t.Fatalf("%s l=%d: zero-weight parent link (%d, %d)", name, l, parent, rep)
			}
			got[pairKey(parent, rep)] += int(n)
			links++
		})
		if want := oracleLinks(tree, l); !mapsEqual(got, want) {
			t.Fatalf("%s l=%d: weighted parent-link multiset mismatch (got %d, want %d links)", name, l, count(got), count(want))
		}
	}
	for l := uint(2); l <= ix.Order; l++ {
		got := map[uint64]int{}
		ix.VisitUpperILPairs(l, 0, ix.LevelLen(l-1), func(rep, other int32, n uint32) {
			if n == 0 || n > 15 {
				t.Fatalf("%s l=%d: IL weight %d for (%d, %d) outside 1..15", name, l, n, rep, other)
			}
			got[pairKey(rep, other)] += 2 * int(n)
			ils++
		})
		if want := oracleIL(tree, l); !mapsEqual(got, want) {
			t.Fatalf("%s l=%d: weighted IL multiset mismatch (got %d, want %d ordered events)", name, l, count(got), count(want))
		}
	}
	return links, ils
}

// upperParentPairs counts the occupied (parent, upper neighbor) cell
// pairs of levels 1..order-1 by the oracle's maps: the most callbacks
// the interaction-list visitor may make when every child group is
// uniform.
func upperParentPairs(tree *oracle.RankTree) int {
	n := 0
	for l := uint(1); l < tree.Order; l++ {
		for _, c := range tree.Cells(l) {
			for _, off := range [][2]int{{1, 0}, {-1, 1}, {0, 1}, {1, 1}} {
				x, y := int(c.X)+off[0], int(c.Y)+off[1]
				if x >= 0 && tree.Rep(l, geom.Pt(uint32(x), uint32(y))) >= 0 {
					n++
				}
			}
		}
	}
	return n
}

// TestVisitCollapseMatchesOracle forces every path of the weighted
// far-field visitors: one rank (every child group is uniform, so each
// adjacent parent pair and each parent collapses to one call), one
// rank per particle (only single-child groups are uniform) and a mixed
// ownership. The expanded multisets must equal the oracle's.
func TestVisitCollapseMatchesOracle(t *testing.T) {
	const order, n = 5, 300
	for _, curve := range testCurves {
		for _, p := range []int{1, n, 16} {
			a := buildAssignment(t, curve, order, n, p, 37)
			ix := keynav.Build(a.Order, a.Particles, a.Ranks)
			tree := oracle.NewRankTree(a.Order, a.Particles, a.Ranks)
			name := fmt.Sprintf("%s p=%d", curve.Name(), p)
			links, ils := farFieldCalls(t, name, ix, tree)
			if p == 1 {
				parents := 0
				for l := uint(0); l < order; l++ {
					parents += ix.LevelLen(l)
				}
				if links != parents {
					t.Fatalf("%s: %d parent-link calls, want one per parent (%d)", name, links, parents)
				}
				if limit := upperParentPairs(tree); ils > limit {
					t.Fatalf("%s: %d IL calls, more than the %d occupied upper parent pairs", name, ils, limit)
				}
			}
			ix.Release()
		}
	}
}

// TestVisitCollapseRebuildAcrossOrders refills one index through
// growing and shrinking orders and ownerships, so a child summary left
// behind by an earlier build would be read as stale; the weighted
// visitors must match the oracle after each rebuild.
func TestVisitCollapseRebuildAcrossOrders(t *testing.T) {
	var ix *keynav.Index
	for i, tc := range []struct {
		order uint
		p     int
	}{{2, 1}, {5, 64}, {3, 1}, {5, 1}, {2, 4}, {4, 0}, {4, 1}} {
		n := int(geom.Side(tc.order)) * int(geom.Side(tc.order)) / 3
		p := tc.p
		if p == 0 {
			p = n
		}
		a := buildAssignment(t, sfc.Hilbert, tc.order, n, p, uint64(60+i))
		if ix == nil {
			ix = keynav.Build(a.Order, a.Particles, a.Ranks)
		} else {
			ix.Rebuild(a.Order, a.Particles, a.Ranks)
		}
		tree := oracle.NewRankTree(a.Order, a.Particles, a.Ranks)
		farFieldCalls(t, fmt.Sprintf("rebuild %d (order %d, p=%d)", i, tc.order, p), ix, tree)
	}
	ix.Release()
}

// TestDenseGridAllLevels fills the grid completely, with one particle
// per rank, so every IL and neighbor relation exists and every pair is
// distinct — catching off-by-ones the sparse sets miss.
func TestDenseGridAllLevels(t *testing.T) {
	const order = 3
	side := geom.Side(order)
	pts := make([]geom.Point, 0, side*side)
	for y := uint32(0); y < side; y++ {
		for x := uint32(0); x < side; x++ {
			pts = append(pts, geom.Pt(x, y))
		}
	}
	a, err := acd.Assign(pts, sfc.Hilbert, order, len(pts))
	if err != nil {
		t.Fatal(err)
	}
	ix := keynav.Build(a.Order, a.Particles, a.Ranks)
	tree := oracle.NewRankTree(a.Order, a.Particles, a.Ranks)
	for l := uint(2); l <= order; l++ {
		want := oracleIL(tree, l)
		got := map[uint64]int{}
		ix.VisitUpperILPairs(l, 0, ix.LevelLen(l-1), func(rep, other int32, n uint32) {
			got[pairKey(rep, other)] += 2 * int(n)
		})
		if !mapsEqual(got, want) {
			t.Fatalf("dense l=%d: IL multiset mismatch (got %d, want %d ordered events)", l, count(got), count(want))
		}
	}
	for _, radius := range []int{1, 2} {
		want := orderedMultiset(func(fn func(src, dst int32)) {
			oracle.VisitNFIPairs(a, radius, geom.MetricChebyshev, fn)
		})
		got := map[uint64]int{}
		ix.VisitUpperNeighborPairs(0, a.N(), radius, geom.MetricChebyshev, func(rank, nb int32) {
			got[pairKey(rank, nb)] += 2
		})
		if !mapsEqual(got, want) {
			t.Fatalf("dense r=%d: near-field multiset mismatch", radius)
		}
	}
	ix.Release()
}

// TestRebuildAcrossOrders refills one index through growing and
// shrinking orders: every level must match the oracle after each
// rebuild, whatever slabs the previous build left behind.
func TestRebuildAcrossOrders(t *testing.T) {
	var ix *keynav.Index
	for i, order := range []uint{2, 3, 5, 2, 4, 4} {
		n := int(geom.Side(order)) * int(geom.Side(order)) / 3
		a := buildAssignment(t, sfc.Hilbert, order, n, 4, uint64(40+i))
		if ix == nil {
			ix = keynav.Build(a.Order, a.Particles, a.Ranks)
		} else {
			ix.Rebuild(a.Order, a.Particles, a.Ranks)
		}
		tree := oracle.NewRankTree(a.Order, a.Particles, a.Ranks)
		for l := uint(0); l <= order; l++ {
			side := geom.Side(l)
			for y := uint32(0); y < side; y++ {
				for x := uint32(0); x < side; x++ {
					if got, want := ix.Rep(l, x, y), tree.Rep(l, geom.Pt(x, y)); got != want {
						t.Fatalf("rebuild %d (order %d): Rep(%d,%d,%d) = %d, oracle %d", i, order, l, x, y, got, want)
					}
				}
			}
		}
	}
	ix.Release()
}

// TestFlatMatchesMap pins the 3D-facing flat index against a plain map
// on random sparse Morton3 keys, for sorted and unsorted input.
func TestFlatMatchesMap(t *testing.T) {
	const keyBits = 30 // 3D order 10
	r := rng.New(31)
	for _, presort := range []bool{false, true} {
		n := 500
		keys := make([]uint64, n)
		ranks := make([]int32, n)
		want := map[uint64]int32{}
		for i := range keys {
			k := r.Uint64() & (1<<keyBits - 1)
			for {
				if _, dup := want[k]; !dup {
					break
				}
				k = r.Uint64() & (1<<keyBits - 1)
			}
			keys[i] = k
			ranks[i] = int32(i % 7)
			want[k] = ranks[i]
		}
		if presort {
			sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
			for i, k := range keys {
				ranks[i] = want[k]
			}
		}
		f := keynav.NewFlat(keys, ranks, keyBits)
		if f.N() != n {
			t.Fatalf("Flat.N = %d, want %d", f.N(), n)
		}
		for k, wr := range want {
			if got := f.Rank(k); got != wr {
				t.Fatalf("presort=%v: Rank(%d) = %d, want %d", presort, k, got, wr)
			}
		}
		for i := 0; i < 1000; i++ {
			k := r.Uint64() & (1<<keyBits - 1)
			wr, ok := want[k]
			if !ok {
				wr = -1
			}
			if got := f.Rank(k); got != wr {
				t.Fatalf("presort=%v: probe Rank(%d) = %d, want %d", presort, k, got, wr)
			}
		}
	}
}

func mapsEqual(a, b map[uint64]int) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if b[k] != v {
			return false
		}
	}
	return true
}

func count(m map[uint64]int) int {
	total := 0
	for _, v := range m {
		total += v
	}
	return total
}

// BenchmarkKeyNavLookup measures the directory-search RankAt behind
// acd.Assignment.RankAt.
func BenchmarkKeyNavLookup(b *testing.B) {
	for _, order := range []uint{8, 12} {
		const n = 15625
		pts, err := dist.SampleUnique(dist.Uniform, rng.New(1), order, n)
		if err != nil {
			b.Fatal(err)
		}
		a, err := acd.Assign(pts, sfc.Hilbert, order, 64)
		if err != nil {
			b.Fatal(err)
		}
		ix := keynav.Build(a.Order, a.Particles, a.Ranks)
		b.Run(fmt.Sprintf("order%d", order), func(b *testing.B) {
			hits := 0
			for i := 0; i < b.N; i++ {
				p := a.Particles[i%n]
				if ix.RankAt(geom.Pt(p.X^1, p.Y)) >= 0 {
					hits++
				}
			}
			_ = hits
		})
		ix.Release()
	}
}

// BenchmarkKeyNavBuild measures index construction at the scaled
// table12 shape.
func BenchmarkKeyNavBuild(b *testing.B) {
	const order, n = 8, 15625
	pts, err := dist.SampleUnique(dist.Uniform, rng.New(1), order, n)
	if err != nil {
		b.Fatal(err)
	}
	a, err := acd.Assign(pts, sfc.Hilbert, order, 64)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ix := keynav.Build(a.Order, a.Particles, a.Ranks)
		ix.Release()
	}
}

// BenchmarkKeyNavILPairs measures one full interaction-list sweep over
// every level, enumerated from adjacent occupied parent pairs — the
// commmat.build.ffi hot loop. The sparse case (64 ranks over many
// particles) is dominated by collapsed single-representative groups.
func BenchmarkKeyNavILPairs(b *testing.B) {
	for _, tc := range []struct {
		order uint
		n, p  int
	}{{6, 1000, 64}, {8, 15625, 64}, {8, 15625, 4096}, {10, 62500, 64}} {
		pts, err := dist.SampleUnique(dist.Uniform, rng.New(uint64(tc.n)), tc.order, tc.n)
		if err != nil {
			b.Fatal(err)
		}
		a, err := acd.Assign(pts, sfc.Hilbert, tc.order, tc.p)
		if err != nil {
			b.Fatal(err)
		}
		ix := keynav.Build(a.Order, a.Particles, a.Ranks)
		b.Run(fmt.Sprintf("order%d_n%d_p%d", tc.order, tc.n, tc.p), func(b *testing.B) {
			var events uint64
			for i := 0; i < b.N; i++ {
				for l := uint(2); l <= ix.Order; l++ {
					ix.VisitUpperILPairs(l, 0, ix.LevelLen(l-1), func(rep, other int32, n uint32) {
						events += uint64(n)
					})
				}
			}
			_ = events
		})
		ix.Release()
	}
}
