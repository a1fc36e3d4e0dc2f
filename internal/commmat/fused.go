// Fused multi-topology contraction: one pass over the distinct rank
// pairs evaluates K distance tables at once, and is the package's only
// contraction — a single table is the K = 1 case of the same pass. The
// pass streams each pair exactly once, gathers its row neighbors into
// registers, and runs one tight sum loop per table while the K distance
// rows for that source stay cache-hot.
//
// Two invariants make the fusion both exact and deterministic:
//
//   - Hop distance is a metric (Topology: zero iff the ranks are
//     equal), so Count and Zeros of a contraction do not depend on the
//     topology at all — Count is the (weighted) event total and Zeros
//     the (weighted) diagonal events. The fused pass takes both from
//     the matrix once and reduces the per-table work to the Sum
//     multiply-add.
//   - All tallies are exact integer sums, and the parallel path splits
//     rows into worker-count-independent ranges (cut purely by the
//     matrix's per-row lookup volumes), contracts each range into a
//     pooled accumulator slab, and merges the slabs in fixed range
//     order — so the result is byte-identical to a sequential per-pair
//     sum at any worker count.
//
// Distance-table state stays pinned to a sequential row-by-row
// contraction by a serial plan step: before any parallel work,
// DistanceTable.RowsFor (DenseRows for the dense form) replays per
// table exactly the RowFor sequence — sources in order, each with the
// pair volume the row is about to look up — that contracting the rows
// one by one would issue, so which rows materialize, and therefore the
// topology.distance.analytic accounting, cannot depend on scheduling.
// Direct Distance calls for unmaterialized rows are tallied per table
// and flushed once per table.
package commmat

import (
	"sync"

	"sfcacd/internal/acd"
	"sfcacd/internal/obs"
	"sfcacd/internal/topology"
)

// fusedCounter counts contraction passes over two or more tables
// ("commmat.fused_contractions") — the manifest evidence that the
// multi-topology call sites share one pass. Single-table passes are
// not counted.
var fusedCounter = obs.GetCounter("commmat.fused_contractions")

// fusedRangePairs is the lookup volume one work range targets. Ranges
// are cut from the matrix's own per-row volumes, never from the worker
// count, so the range boundaries — and with them the merge structure —
// are a pure function of the matrix.
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
// in one fused pass, adding table k's contraction into accs[k]: for
// every pair, its event count times the table's hop distance (Sum),
// the event count (Count), and the zero-hop events (Zeros). Results
// are identical at any worker count; workers <= 1 runs on the calling
// goroutine.
func (m *Matrix) ContractTableMulti(dts []*topology.DistanceTable, accs []*acd.Accumulator, workers int) {
	m.contractTableMulti(dts, accs, 1, workers)
}

// ContractTableMultiSym is ContractTableMulti for a symmetric-canonical
// matrix (unordered pair counts with src <= dst): every pair's events
// count once per direction, which is exact because hop distance is
// symmetric.
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
	if k > 1 {
		fusedCounter.Inc()
	}

	// Plan (serial): replay the row-by-row RowFor sequence per table,
	// each table's batch under one lock. This both fixes which rows
	// materialize — pinning the distance-query accounting — and
	// captures the row pointers the parallel phase reads. The per-row
	// lookup volumes double as the range-cutting weights: a CSR row's
	// pair count, and for a dense row p, since its work is a scan of
	// the full row.
	numRows := len(m.rowSrc)
	if m.dense != nil {
		numRows = m.p
	}
	pl := getPlan(k, numRows)
	if m.dense != nil {
		for src := range pl.lens {
			pl.lens[src] = int32(m.p)
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
			dsts = make([]int32, m.p)
			ns = make([]uint32, m.p)
		}
		for i := range next {
			s := getSlab(k)
			m.fuseRange(ranges[i].lo, ranges[i].hi, pl, numRows, weight, s, dsts, ns)
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
	// volume once. The ranges only tally Sum; Count and Zeros are
	// topology-independent matrix constants (hop distance is zero iff
	// the ranks are equal), applied here once per table.
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
// nonzero (dst, count) pairs are gathered once into dsts/ns (dense
// form, both p long) or sliced in place (CSR), and each table reduced
// with a tight Sum loop over its distance row — falling back to one
// batched DistanceSum (or, for topologies without one, per-pair
// Distance calls), tallied per table, for rows the plan left
// unmaterialized.
func (m *Matrix) fuseRange(lo, hi int, pl *fusedPlan, numRows, weight int, slab *fusedSlab, dsts []int32, ns []uint32) {
	w := uint64(weight)
	if m.dense != nil {
		for src := lo; src < hi; src++ {
			base := src * m.p
			// Branch-free compaction: every cell is written, and only a
			// nonzero count advances the cursor.
			rd, rn := dsts, ns
			nz := 0
			for dst, n := range m.dense[base : base+m.p] {
				rd[nz], rn[nz] = int32(dst), n
				nz += int(min(n, 1))
			}
			if nz == 0 {
				continue
			}
			rd, rn = rd[:nz], rn[:nz]
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
