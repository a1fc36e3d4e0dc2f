package fmmmodel

import (
	"sync"

	"sfcacd/internal/acd"
	"sfcacd/internal/commmat"
	"sfcacd/internal/keynav"
	"sfcacd/internal/obs"
	"sfcacd/internal/topology"
)

// This file builds topology-independent communication matrices
// (internal/commmat) from the model's event streams. Aggregation only
// regroups events, so contracting a matrix against a topology
// reproduces the per-event accumulator of the model's definition bit
// for bit (the differential tests pin this against internal/oracle).
// Two symmetries cut the aggregation work in half:
//
//   - The near-field and interaction-list relations are symmetric, so
//     both traversals enumerate each unordered pair once (from its
//     row-major-lower member) and store it in canonical src <= dst
//     form; the Sym contractions weight every pair by both directions.
//   - The anterpolation stream is the interpolation stream reversed,
//     and hop distance is symmetric, so one interpolation matrix and
//     one contraction serve both accumulators.
//
// The far-field matrices stay separate per communication type so
// FFIResult's breakdown survives aggregation.

// NFIMatrix aggregates the assignment's near-field event stream in one
// parallel traversal into a symmetric-canonical matrix: every unordered
// particle pair within opts.Radius contributes one event between the
// owning ranks, keyed with the smaller rank as source. The pairs come
// from a row sweep over the assignment's shared occupancy index.
// Contract with ContractTableMultiSym; each pair then counts once per
// direction, exactly reproducing the ordered near-field stream.
func NFIMatrix(a *acd.Assignment, opts NFIOptions) *commmat.Matrix {
	defer obs.StartSpan("commmat.build.nfi").End()
	opts.normalize()
	ix := a.KeyIndex()
	n := ix.N()
	workers := opts.Workers
	if workers > n {
		workers = n
	}
	b := commmat.NewBuilder(a.P, workers)
	chunk := (n + workers - 1) / workers
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := w * chunk
		hi := lo + chunk
		if hi > n {
			hi = n
		}
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			s := b.Shard(w)
			ix.VisitUpperNeighborPairs(lo, hi, opts.Radius, opts.Metric, func(mine, r int32) {
				if r < mine {
					s.Add(r, mine)
				} else {
					s.Add(mine, r)
				}
			})
		}(w, lo, hi)
	}
	wg.Wait()
	return b.Finalize()
}

// FFIMatrices holds the far-field communication matrices by type.
type FFIMatrices struct {
	// Interpolation aggregates the child-parent representative links of
	// every level, one event per link, keyed (parent, child) — the
	// canonical orientation, since a parent's representative is the
	// minimum over its children's. Hop distance is a metric (symmetric),
	// so one weight-1 contraction of this matrix yields both the
	// interpolation and the anterpolation accumulator; neither direction
	// is duplicated here.
	Interpolation *commmat.Matrix
	// InteractionList aggregates the well-separated cell exchanges of
	// every level in symmetric-canonical form (each unordered cell pair
	// once, smaller rank as source); contract with ContractTableMultiSym.
	InteractionList *commmat.Matrix
}

// FFIMatricesFromIndex aggregates the far-field event streams over p
// ranks from the index's per-level occupied-cell slabs. Work is chunked
// over slab positions and fed to a fixed worker pool, one builder shard
// per worker, so task cost tracks occupancy — there are no empty-cell
// scans — and the interaction lists are enumerated from adjacent
// parent pairs rather than per-cell candidate windows.
func FFIMatricesFromIndex(ix *keynav.Index, p, workers int) FFIMatrices {
	defer obs.StartSpan("commmat.build.ffi").End()
	if workers <= 0 {
		workers = defaultWorkers()
	}
	bi := commmat.NewBuilder(p, workers)
	bl := commmat.NewBuilder(p, workers)
	type task struct {
		level       uint
		lo, hi      int
		interaction bool
	}
	var tasks []task
	// Both streams are enumerated per parent, so work is chunked over
	// the parent level's positions.
	chunkTasks := func(level uint, m int, interaction bool) {
		chunk := m / (4 * workers)
		if chunk == 0 {
			chunk = 1
		}
		for lo := 0; lo < m; lo += chunk {
			hi := lo + chunk
			if hi > m {
				hi = m
			}
			tasks = append(tasks, task{level: level, lo: lo, hi: hi, interaction: interaction})
		}
	}
	for l := ix.Order; l >= 1; l-- {
		chunkTasks(l, ix.LevelLen(l-1), false)
	}
	for l := uint(2); l <= ix.Order; l++ {
		chunkTasks(l, ix.LevelLen(l-1), true)
	}
	ch := make(chan task)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			si, sl := bi.Shard(w), bl.Shard(w)
			for t := range ch {
				if t.interaction {
					ix.VisitUpperILPairs(t.level, t.lo, t.hi, func(rep, other int32, n uint32) {
						if other < rep {
							sl.AddN(other, rep, n)
						} else {
							sl.AddN(rep, other, n)
						}
					})
				} else {
					// Parent representatives are minima over children, so
					// (parent, child) is already canonical.
					ix.VisitParentLinks(t.level, t.lo, t.hi, func(parent, rep int32, n uint32) {
						si.AddN(parent, rep, n)
					})
				}
			}
		}(w)
	}
	for _, t := range tasks {
		ch <- t
	}
	close(ch)
	wg.Wait()
	return FFIMatrices{Interpolation: bi.Finalize(), InteractionList: bl.Finalize()}
}

// Distance tables are cached across calls, keyed by topology instance:
// experiment sweeps contract many assignments against the same topology
// objects, so a table materialized once serves the whole sweep. The
// cache is a small FIFO — worst case dtCacheMax tables of
// eagerCells-bounded size.
const dtCacheMax = 8

var (
	dtMu    sync.Mutex
	dtCache map[topology.Topology]*topology.DistanceTable
	dtFIFO  []topology.Topology
)

// distanceTableFor returns the cached distance table of a topology,
// creating (and caching) one on first use.
func distanceTableFor(t topology.Topology) *topology.DistanceTable {
	dtMu.Lock()
	defer dtMu.Unlock()
	if dt, ok := dtCache[t]; ok {
		return dt
	}
	if dtCache == nil {
		dtCache = make(map[topology.Topology]*topology.DistanceTable)
	}
	for len(dtFIFO) >= dtCacheMax {
		delete(dtCache, dtFIFO[0])
		dtFIFO = dtFIFO[1:]
	}
	dt := topology.NewDistanceTable(t)
	dtCache[t] = dt
	dtFIFO = append(dtFIFO, t)
	return dt
}

// contractAll contracts one symmetric-canonical matrix against every
// topology in a single fused pass through cached per-topology distance
// tables: each distinct pair is read once and evaluated against all K
// tables, with parallelism inside the matrix (bounded by workers)
// instead of one goroutine per topology. Results are identical at any
// worker count.
func contractAll(m *commmat.Matrix, topos []topology.Topology, workers int) []acd.Accumulator {
	defer obs.StartSpan("commmat.contract").End()
	out := make([]acd.Accumulator, len(topos))
	dts := make([]*topology.DistanceTable, len(topos))
	accs := make([]*acd.Accumulator, len(topos))
	for t, topo := range topos {
		dts[t] = distanceTableFor(topo)
		accs[t] = &out[t]
	}
	m.ContractTableMultiSym(dts, accs, workers)
	return out
}
