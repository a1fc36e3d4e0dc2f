package commmat

import (
	"math"
	"math/bits"
	"slices"
	"sort"

	"sfcacd/internal/acd"
	"sfcacd/internal/topology"
)

// Mutable is a long-lived, retractable aggregation of a
// symmetric-canonical communication event stream (every unordered rank
// pair recorded once, as src <= dst). Where Builder aggregates one
// frozen stream and finalizes, Mutable supports Sub — the incremental
// pipeline retracts the events of moved particles and re-adds them
// under their new ranks, carrying the matrix across timesteps instead
// of rebuilding it.
//
// The layout is a banded grid: counts indexed by (src, dst-src delta)
// with an occupancy bitmap, plus an overflow map for the rare pair
// beyond the band. It is owned by one maintainer for its whole life and
// is never shared, so all updates are plain (single-goroutine)
// arithmetic.
type Mutable struct {
	p      int
	stride int // band width in deltas; 0 = map-only aggregation
	grid   []uint32
	bm     []uint64
	over   map[uint64]uint32
	events uint64
	pairs  int
	// csrBuf is the CSR buffer ContractTableMultiSym gathers into.
	csrBuf csr
}

// maxScratchCells caps the band grid at 32 MiB of uint32.
const maxScratchCells = 1 << 23

// scratchStride returns the band-grid row width for p ranks: p itself
// while p x p fits maxScratchCells, else a band of dst-src deltas (2048
// wide at p = 4096), or 0 for map-only aggregation. Band strides are
// multiples of 64 so bitmap words never straddle rows.
func scratchStride(p int) int {
	if p*p <= maxScratchCells {
		return p
	}
	return (maxScratchCells / p) &^ 63
}

// NewMutable returns an empty mutable matrix over p ranks.
func NewMutable(p int) *Mutable {
	if p < 1 {
		panic("commmat: mutable matrix needs at least 1 rank")
	}
	m := &Mutable{p: p, stride: scratchStride(p)}
	if m.stride > 0 {
		cells := p * m.stride
		m.grid = make([]uint32, cells)
		m.bm = make([]uint64, (cells+63)/64)
	}
	return m
}

// P returns the number of processor ranks.
func (m *Mutable) P() int { return m.p }

// Events returns the current total event count.
func (m *Mutable) Events() uint64 { return m.events }

// Pairs returns the number of distinct pairs with a nonzero count.
func (m *Mutable) Pairs() int { return m.pairs }

// slot locates the pair's band index, or -1 for overflow pairs. It
// panics on non-canonical or out-of-range pairs: the maintainer owns
// canonicalization, and a silent fix here would hide a corrupted
// retraction stream.
func (m *Mutable) slot(src, dst int32) int {
	if src < 0 || dst < src || int(dst) >= m.p {
		panic("commmat: mutable pair must be canonical 0 <= src <= dst < p")
	}
	d := int(dst) - int(src)
	if d >= m.stride {
		return -1
	}
	return int(src)*m.stride + d
}

// Add records one canonical communication event. A pair whose count
// would pass the uint32 range panics, naming the pair.
func (m *Mutable) Add(src, dst int32) {
	if idx := m.slot(src, dst); idx >= 0 {
		c := m.grid[idx]
		if c == math.MaxUint32 {
			countOverflow(src, dst)
		}
		m.grid[idx] = c + 1
		if c == 0 {
			m.bm[idx>>6] |= 1 << (uint(idx) & 63)
			m.pairs++
		}
		m.events++
		return
	}
	key := uint64(uint32(src))<<32 | uint64(uint32(dst))
	if m.over == nil {
		m.over = make(map[uint64]uint32)
	}
	c := m.over[key]
	if c == math.MaxUint32 {
		countOverflow(src, dst)
	}
	m.over[key] = c + 1
	if c == 0 {
		m.pairs++
	}
	m.events++
}

// Sub retracts one previously added event. Retracting a pair with no
// recorded events panics: the incremental maintainer's retraction
// stream must mirror its addition stream exactly, and a miscount here
// means the maintained matrix has already diverged from the oracle.
func (m *Mutable) Sub(src, dst int32) {
	if idx := m.slot(src, dst); idx >= 0 {
		c := m.grid[idx]
		if c == 0 {
			panic("commmat: Sub of pair with no events")
		}
		m.grid[idx] = c - 1
		if c == 1 {
			m.bm[idx>>6] &^= 1 << (uint(idx) & 63)
			m.pairs--
		}
		m.events--
		return
	}
	key := uint64(uint32(src))<<32 | uint64(uint32(dst))
	c := m.over[key]
	if c == 0 {
		panic("commmat: Sub of pair with no events")
	}
	if c == 1 {
		delete(m.over, key)
		m.pairs--
	} else {
		m.over[key] = c - 1
	}
	m.events--
}

// Reset empties the matrix in time proportional to its occupancy (set
// bitmap words, not grid size), for the repartition path that refills
// from scratch.
func (m *Mutable) Reset() {
	for w, word := range m.bm {
		if word == 0 {
			continue
		}
		m.bm[w] = 0
		base := w << 6
		for word != 0 {
			m.grid[base+bits.TrailingZeros64(word)] = 0
			word &= word - 1
		}
	}
	for k := range m.over {
		delete(m.over, k)
	}
	m.events = 0
	m.pairs = 0
}

// sortedOverflow returns the overflow keys in ascending order.
func (m *Mutable) sortedOverflow() []uint64 {
	if len(m.over) == 0 {
		return nil
	}
	keys := make([]uint64, 0, len(m.over))
	for k := range m.over {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	return keys
}

// Visit calls fn for every pair with a nonzero count in ascending
// (src, dst) order — the same order Matrix.Visit produces, which is
// what makes the maintained matrix comparable pair by pair against the
// from-scratch build.
func (m *Mutable) Visit(fn func(src, dst int32, n uint32)) {
	keys := m.sortedOverflow()
	k := 0
	// Overflow deltas exceed the band, so within one source row every
	// overflow dst sorts after every band dst: flush rows strictly
	// before the current band row, then drain the rest at the end.
	flush := func(uptoSrc int32) {
		for k < len(keys) && int32(keys[k]>>32) < uptoSrc {
			fn(int32(keys[k]>>32), int32(uint32(keys[k])), m.over[keys[k]])
			k++
		}
	}
	if m.grid != nil {
		// The global bit order is (src, delta) = (src, dst) order; track
		// the row bounds as the scan advances (strides are not always
		// word-aligned when the band spans all of p).
		curSrc, rowBase, rowEnd := int32(0), 0, m.stride
		for w, word := range m.bm {
			for word != 0 {
				idx := w<<6 + bits.TrailingZeros64(word)
				word &= word - 1
				for idx >= rowEnd {
					curSrc++
					rowBase = rowEnd
					rowEnd += m.stride
				}
				flush(curSrc)
				fn(curSrc, curSrc+int32(idx-rowBase), m.grid[idx])
			}
		}
	}
	flush(int32(m.p))
}

// Matrix materializes the current state as an immutable Matrix in the
// exact form Builder.Finalize produces for the same stream (dense or
// CSR by the same p threshold) — the bridge back to the batch paths
// and the differential tests' comparison target. The commmat build
// counters are not touched: the incremental layer accounts its
// maintenance through its own metrics.
func (m *Mutable) Matrix() *Matrix {
	mat := &Matrix{p: m.p, events: m.events, pairs: m.pairs}
	if m.p*m.p <= denseCells {
		mat.dense = make([]uint32, m.p*m.p)
		m.Visit(func(src, dst int32, n uint32) {
			mat.dense[int(src)*m.p+int(dst)] = n
		})
		mat.computeDiag()
		return mat
	}
	mat.csr, mat.diag = m.gather(csr{})
	return mat
}

// gather collects the current pairs in CSR form into buf's storage,
// reusing its capacity, and returns them with their diagonal event
// total. It produces CSR whatever p is, so a contraction over it
// announces each row's own pair count to the distance tables.
func (m *Mutable) gather(buf csr) (csr, uint64) {
	g := csr{
		rowSrc:   buf.rowSrc[:0],
		rowStart: append(buf.rowStart[:0], 0),
		dsts:     slices.Grow(buf.dsts[:0], m.pairs),
		counts:   slices.Grow(buf.counts[:0], m.pairs),
	}
	var diag uint64
	m.Visit(func(src, dst int32, n uint32) {
		if len(g.rowSrc) == 0 || g.rowSrc[len(g.rowSrc)-1] != src {
			g.rowSrc = append(g.rowSrc, src)
			g.rowStart = append(g.rowStart, 0)
		}
		if dst == src {
			diag += uint64(n)
		}
		g.dsts = append(g.dsts, dst)
		g.counts = append(g.counts, n)
		g.rowStart[len(g.rowStart)-1] = int32(len(g.dsts))
	})
	return g, diag
}

// ContractTableMultiSym contracts the maintained matrix against every
// distance table with symmetric-canonical weighting (each pair counts
// both directions), adding table k's contraction into accs[k]. The
// pairs are gathered into a CSR buffer the Mutable reuses across calls
// and contracted by Matrix's fused pass on the calling goroutine.
func (m *Mutable) ContractTableMultiSym(dts []*topology.DistanceTable, accs []*acd.Accumulator) {
	var diag uint64
	m.csrBuf, diag = m.gather(m.csrBuf)
	mat := Matrix{p: m.p, events: m.events, pairs: m.pairs, diag: diag, csr: m.csrBuf}
	mat.contractTableMulti(dts, accs, 2, 1)
}
