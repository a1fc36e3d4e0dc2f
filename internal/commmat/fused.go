// Fused multi-topology contraction: one pass over the distinct rank
// pairs evaluates K distance tables at once. The per-topology
// ContractTable loop reads every pair K times and re-derives the
// topology-independent tallies (event count, zero-hop count) K times;
// the fused pass streams each pair exactly once, gathers its row
// neighbors into registers, and runs one tight sum loop per table
// while the K distance rows for that source stay cache-hot.
//
// Two invariants make the fusion both exact and deterministic:
//
//   - Hop distance is a metric (Topology: zero iff the ranks are
//     equal), so Count and Zeros of a contraction do not depend on the
//     topology at all — Count is the (weighted) event total and Zeros
//     the (weighted) diagonal events. The fused pass computes both
//     once per row and reduces the per-table work to the Sum
//     multiply-add.
//   - All tallies are exact integer sums, and the parallel path splits
//     rows into worker-count-independent ranges (cut purely by the
//     matrix's pair counts), contracts each range into a pooled
//     accumulator slab, and merges the slabs in fixed range order — so
//     the result is byte-identical to the sequential per-topology loop
//     at any worker count.
//
// Distance-table state stays pinned to the sequential path by a serial
// plan step: before any parallel work, RowFor is replayed per table in
// exactly the order (and with exactly the pair volumes) the sequential
// contraction would issue, so which rows materialize — and therefore
// the topology.distance.analytic accounting — cannot depend on
// scheduling. Direct Distance calls for unmaterialized rows are
// tallied per table and flushed once per table, like the sequential
// path.
package commmat

import (
	"sync"

	"sfcacd/internal/acd"
	"sfcacd/internal/obs"
	"sfcacd/internal/topology"
)

// fusedCounter counts fused multi-table contraction passes
// ("commmat.fused_contractions") — the manifest evidence that the
// multi-topology call sites actually run the fused path.
var fusedCounter = obs.GetCounter("commmat.fused_contractions")

// fusedRangePairs is the distinct-pair volume one work range targets.
// Ranges are cut from the matrix's own row pair counts, never from the
// worker count, so the range boundaries — and with them the merge
// structure — are a pure function of the matrix.
const fusedRangePairs = 4096

// fusedSlab is the per-range result: one accumulator and one
// direct-call tally per table. Slabs are pooled — a sweep contracts
// thousands of ranges and the slabs are the only per-range allocation.
type fusedSlab struct {
	accs   []acd.Accumulator
	direct []uint64
}

var slabPool = sync.Pool{New: func() any { return new(fusedSlab) }}

func getSlab(k int) *fusedSlab {
	s := slabPool.Get().(*fusedSlab)
	if cap(s.accs) < k {
		s.accs = make([]acd.Accumulator, k)
		s.direct = make([]uint64, k)
	}
	s.accs = s.accs[:k]
	s.direct = s.direct[:k]
	for i := range s.accs {
		s.accs[i] = acd.Accumulator{}
		s.direct[i] = 0
	}
	return s
}

// rowRange is one unit of parallel work: a contiguous row interval cut
// by pair volume.
type rowRange struct{ lo, hi int }

// fusedPlan is the pooled per-contraction scratch: the planned distance
// rows (k tables x numRows, table-major), the per-row pair counts the
// ranges are cut from, and the per-table topology handles. Pooling it
// matters — a sweep contracts hundreds of matrices and the rows slice
// alone is k*numRows pointers.
type fusedPlan struct {
	rows   [][]uint16
	lens   []int32
	unders []topology.Topology
	sums   []topology.PairContractor
	blocks []topology.RowBlockContractor
	// allNil[t] marks a table whose plan materialized no rows at all —
	// the whole contraction for it is direct, so a range can hand the
	// topology one RowBlockContractor dispatch per range instead of one
	// per row.
	allNil []bool
	direct []uint64
	ranges []rowRange
}

var planPool = sync.Pool{New: func() any { return new(fusedPlan) }}

func getPlan(k, numRows int) *fusedPlan {
	pl := planPool.Get().(*fusedPlan)
	if cap(pl.rows) < k*numRows {
		pl.rows = make([][]uint16, k*numRows)
	}
	pl.rows = pl.rows[:k*numRows]
	if cap(pl.lens) < numRows {
		pl.lens = make([]int32, numRows)
	}
	pl.lens = pl.lens[:numRows]
	if cap(pl.unders) < k {
		pl.unders = make([]topology.Topology, k)
		pl.sums = make([]topology.PairContractor, k)
		pl.blocks = make([]topology.RowBlockContractor, k)
		pl.allNil = make([]bool, k)
		pl.direct = make([]uint64, k)
	}
	pl.unders = pl.unders[:k]
	pl.sums = pl.sums[:k]
	pl.blocks = pl.blocks[:k]
	pl.allNil = pl.allNil[:k]
	pl.direct = pl.direct[:k]
	for t := range pl.direct {
		pl.direct[t] = 0
	}
	pl.ranges = pl.ranges[:0]
	return pl
}

// putPlan clears the plan's references (so pooled plans never pin
// distance tables past their cache eviction) and returns it.
func putPlan(pl *fusedPlan) {
	clear(pl.rows)
	clear(pl.unders)
	clear(pl.sums)
	clear(pl.blocks)
	planPool.Put(pl)
}

// ContractTableMulti contracts the matrix against every distance table
// in one fused pass, adding table k's contraction into accs[k]. The
// result of each accumulator is exactly (Sum/Count/Zeros equality)
// what ContractTable against the same table would produce, at any
// worker count; workers <= 1 runs on the calling goroutine.
func (m *Matrix) ContractTableMulti(dts []*topology.DistanceTable, accs []*acd.Accumulator, workers int) {
	m.contractTableMulti(dts, accs, 1, workers)
}

// ContractTableMultiSym is ContractTableMulti for a symmetric-canonical
// matrix: every pair's events count once per direction, matching
// ContractTableSym.
func (m *Matrix) ContractTableMultiSym(dts []*topology.DistanceTable, accs []*acd.Accumulator, workers int) {
	m.contractTableMulti(dts, accs, 2, workers)
}

func (m *Matrix) contractTableMulti(dts []*topology.DistanceTable, accs []*acd.Accumulator, weight, workers int) {
	if len(dts) != len(accs) {
		panic("commmat: ContractTableMulti needs one accumulator per table")
	}
	k := len(dts)
	if k == 0 {
		return
	}
	if k == 1 {
		// A single table gains nothing from fusion — the sequential
		// contraction is the same work without the plan pass — so
		// single-topology call sites (the metrics sweep, per-tick
		// incremental contractions) delegate and never regress.
		m.contractTable(dts[0], accs[0], weight)
		return
	}
	fusedCounter.Inc()

	// Plan (serial): replay the sequential contraction's exact RowFor
	// sequence per table, each table's batch under one lock. This both
	// fixes which rows materialize — pinning the distance-query
	// accounting to the sequential path — and captures the row pointers
	// the parallel phase reads. The per-row pair counts double as the
	// range-cutting weights.
	numRows := len(m.rowSrc)
	if m.dense != nil {
		numRows = m.p
	}
	pl := getPlan(k, numRows)
	if m.dense != nil {
		for src := 0; src < m.p; src++ {
			base := src * m.p
			nnz := int32(0)
			for dst := 0; dst < m.p; dst++ {
				if m.dense[base+dst] != 0 {
					nnz++
				}
			}
			pl.lens[src] = nnz
		}
	} else {
		for r := range m.rowSrc {
			pl.lens[r] = m.rowStart[r+1] - m.rowStart[r]
		}
	}
	for t, dt := range dts {
		pl.unders[t] = dt.Underlying()
		pl.sums[t], _ = pl.unders[t].(topology.PairContractor)
		pl.blocks[t], _ = pl.unders[t].(topology.RowBlockContractor)
		rows := pl.rows[t*numRows : (t+1)*numRows]
		if m.dense != nil {
			// The sequential dense loop announces m.p lookups per row
			// (it scans the full row), so the plan does too.
			dt.DenseRows(m.p, rows)
		} else {
			dt.RowsFor(m.rowSrc, pl.lens, rows)
		}
		pl.allNil[t] = true
		for _, row := range rows {
			if row != nil {
				pl.allNil[t] = false
				break
			}
		}
	}

	lo, pairs := 0, 0
	for r := 0; r < numRows; r++ {
		pairs += int(pl.lens[r])
		if pairs >= fusedRangePairs {
			pl.ranges = append(pl.ranges, rowRange{lo, r + 1})
			lo, pairs = r+1, 0
		}
	}
	if lo < numRows {
		pl.ranges = append(pl.ranges, rowRange{lo, numRows})
	}
	ranges := pl.ranges

	// Contract every range into its own slab. Workers pull range indices
	// from a channel preloaded with all of them; each range's slab is
	// identified by range index, so scheduling never reaches the results.
	slabs := make([]*fusedSlab, len(ranges))
	next := make(chan int, len(ranges)) // sized to the number of sends
	for i := range ranges {
		next <- i
	}
	close(next)
	work := func() {
		var dsts []int32
		var ns []uint32
		if m.dense != nil {
			dsts = make([]int32, 0, m.p)
			ns = make([]uint32, 0, m.p)
		}
		for i := range next {
			s := getSlab(k)
			m.fuseRange(ranges[i].lo, ranges[i].hi, pl, numRows, weight, s, &dsts, &ns)
			slabs[i] = s
		}
	}
	if workers > len(ranges) {
		workers = len(ranges)
	}
	if workers <= 1 {
		work()
	} else {
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				work()
			}()
		}
		wg.Wait()
	}

	// Merge in fixed range order and flush each table's direct-call
	// volume once, like its sequential contraction would. The ranges
	// only tally Sum; Count and Zeros are topology-independent matrix
	// constants (hop distance is zero iff the ranks are equal), applied
	// here once per table.
	w := uint64(weight)
	for t := range accs {
		accs[t].Count += w * m.events
		accs[t].Zeros += w * m.diag
	}
	for _, s := range slabs {
		for t := range accs {
			accs[t].Merge(s.accs[t])
			pl.direct[t] += s.direct[t]
		}
		slabPool.Put(s)
	}
	for t := range dts {
		topology.CountDistanceQueries(pl.direct[t])
	}
	putPlan(pl)
}

// fuseRange contracts rows [lo, hi) into the slab: per row, the
// nonzero (dst, count) pairs are gathered once (dense form) or sliced
// in place (CSR), the topology-independent tallies computed once, and
// each table reduced with a tight Sum loop over its distance row —
// falling back to one batched DistanceSum (or, for topologies without
// one, per-pair Distance calls), tallied per table, for rows the plan
// left unmaterialized.
func (m *Matrix) fuseRange(lo, hi int, pl *fusedPlan, numRows, weight int, slab *fusedSlab, dsts *[]int32, ns *[]uint32) {
	w := uint64(weight)
	if m.dense != nil {
		for src := lo; src < hi; src++ {
			base := src * m.p
			rd, rn := (*dsts)[:0], (*ns)[:0]
			for dst := 0; dst < m.p; dst++ {
				if n := m.dense[base+dst]; n != 0 {
					rd = append(rd, int32(dst))
					rn = append(rn, n)
				}
			}
			*dsts, *ns = rd, rn
			if len(rd) == 0 {
				continue
			}
			for t := range slab.accs {
				var s uint64
				if row := pl.rows[t*numRows+src]; row != nil {
					for i, d := range rd {
						s += uint64(row[d]) * uint64(rn[i])
					}
				} else {
					s = fuseDirect(pl, t, src, rd, rn)
					slab.direct[t] += uint64(len(rd))
				}
				slab.accs[t].Sum += w * s
			}
		}
		return
	}
	// CSR: tables iterate outer, rows inner. The range's pair data is a
	// few tens of KB and stays cache-resident across the K passes, and
	// a table whose plan materialized nothing contracts the whole range
	// in one RowBlockContractor dispatch.
	for t := range slab.accs {
		if pl.allNil[t] {
			var s uint64
			if bc := pl.blocks[t]; bc != nil {
				s = bc.DistanceSumRows(m.rowSrc[lo:hi], m.rowStart[lo:hi+1], m.dsts, m.counts)
			} else {
				for r := lo; r < hi; r++ {
					rlo, rhi := m.rowStart[r], m.rowStart[r+1]
					s += fuseDirect(pl, t, int(m.rowSrc[r]), m.dsts[rlo:rhi], m.counts[rlo:rhi])
				}
			}
			slab.accs[t].Sum += w * s
			slab.direct[t] += uint64(m.rowStart[hi] - m.rowStart[lo])
			continue
		}
		for r := lo; r < hi; r++ {
			rlo, rhi := m.rowStart[r], m.rowStart[r+1]
			rd, rn := m.dsts[rlo:rhi], m.counts[rlo:rhi]
			var s uint64
			if row := pl.rows[t*numRows+r]; row != nil {
				for i, d := range rd {
					s += uint64(row[d]) * uint64(rn[i])
				}
			} else {
				s = fuseDirect(pl, t, int(m.rowSrc[r]), rd, rn)
				slab.direct[t] += uint64(len(rd))
			}
			slab.accs[t].Sum += w * s
		}
	}
}

// fuseDirect answers one unmaterialized row for table t: a single
// batched DistanceSum dispatch when the topology supports it, a
// per-pair Distance loop otherwise.
func fuseDirect(pl *fusedPlan, t, src int, rd []int32, rn []uint32) uint64 {
	if pc := pl.sums[t]; pc != nil {
		return pc.DistanceSum(src, rd, rn)
	}
	topo := pl.unders[t]
	var s uint64
	for i, d := range rd {
		s += uint64(topo.Distance(src, int(d))) * uint64(rn[i])
	}
	return s
}

// ContractTableMultiSym contracts the maintained matrix against every
// distance table in one fused pass with symmetric-canonical weighting,
// adding table k's contraction into accs[k] — exactly what K calls of
// ContractTableSym would produce. The maintainer is single-goroutine,
// so the pass is serial: rows are buffered once from Visit and the K
// distance rows for each source are looked up back to back, in the
// same per-table RowFor order as the sequential path.
func (m *Mutable) ContractTableMultiSym(dts []*topology.DistanceTable, accs []*acd.Accumulator) {
	if len(dts) != len(accs) {
		panic("commmat: ContractTableMultiSym needs one accumulator per table")
	}
	if len(dts) == 0 {
		return
	}
	if len(dts) == 1 {
		// See Matrix.contractTableMulti: one table contracts cheaper
		// without the fusion scaffolding.
		m.ContractTableSym(dts[0], accs[0])
		return
	}
	fusedCounter.Inc()
	unders := make([]topology.Topology, len(dts))
	sums := make([]topology.PairContractor, len(dts))
	for t, dt := range dts {
		unders[t] = dt.Underlying()
		sums[t], _ = unders[t].(topology.PairContractor)
	}
	direct := make([]uint64, len(dts))
	curSrc := int32(-1)
	var dsts []int32
	var counts []uint32
	flushRow := func() {
		if len(dsts) == 0 {
			return
		}
		var ev, zeros uint64
		for i, d := range dsts {
			n := uint64(counts[i])
			ev += n
			if d == curSrc {
				zeros = n
			}
		}
		for t, dt := range dts {
			var s uint64
			if row := dt.RowFor(int(curSrc), len(dsts)); row != nil {
				for i, d := range dsts {
					s += uint64(row[d]) * uint64(counts[i])
				}
			} else {
				if pc := sums[t]; pc != nil {
					s = pc.DistanceSum(int(curSrc), dsts, counts)
				} else {
					topo := unders[t]
					for i, d := range dsts {
						s += uint64(topo.Distance(int(curSrc), int(d))) * uint64(counts[i])
					}
				}
				direct[t] += uint64(len(dsts))
			}
			accs[t].Sum += 2 * s
			accs[t].Count += 2 * ev
			accs[t].Zeros += 2 * zeros
		}
		dsts, counts = dsts[:0], counts[:0]
	}
	m.Visit(func(src, dst int32, n uint32) {
		if src != curSrc {
			flushRow()
			curSrc = src
		}
		dsts = append(dsts, dst)
		counts = append(counts, n)
	})
	flushRow()
	for t := range dts {
		topology.CountDistanceQueries(direct[t])
	}
}
