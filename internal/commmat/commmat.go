// Package commmat provides topology-independent communication
// matrices: sparse (or, for small processor counts, dense) aggregations
// of a communication event stream by (src, dst) rank pair.
//
// The paper's model (§IV) makes the event stream of an assignment
// independent of the network, and chunk-monotone rank assignment makes
// it highly repetitive: a near-field or interaction-list traversal
// touches far fewer distinct rank pairs than events. Aggregating the
// stream once turns multi-topology evaluation into a contraction — one
// distance lookup per *distinct* pair, applied with Accumulator.AddN —
// so sweeping T topologies costs O(events + distinctPairs x T) instead
// of O(events x T). This is the communication-matrix formulation of the
// topology-mapping literature (Hoefler & Snir; hop-byte metrics),
// specialized to exact event counts.
//
// Build with a Builder (one Shard per concurrent worker, merged into an
// immutable Matrix by Finalize), then contract with
// Matrix.ContractTableMulti against one or more topology.DistanceTable
// values — the package's only contraction, one fused pass over the
// distinct pairs for any number of tables. Event streams whose pair
// relation is symmetric (near field, interaction lists) are best
// aggregated in canonical src <= dst form — each unordered pair
// recorded once — and contracted with the Sym variant, which weights
// every pair by both directions.
//
// Aggregation is row-bucketed and atomic-free: each Shard owns its
// memory. For p <= 512 a shard counts into its own p x p grid and
// Finalize sums the grids. Larger p log packed (src, dst) keys per
// shard; Finalize counting-sorts the logs into src rows and folds each
// row in a cache-resident p-wide counter straight into CSR. A full log
// drains through the same fold into a sorted run that Finalize merges,
// so memory tracks distinct pairs, not events.
package commmat

import (
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"sfcacd/internal/obs"
)

// Build-volume counters: "commmat.events" counts aggregated
// communication events, "commmat.pairs" distinct (src, dst) rank pairs.
// Their ratio is the dedup factor the contraction exploits; cmd/acdbench
// derives the "commmat.dedup_ratio" gauge from them for run manifests.
var (
	eventsCounter = obs.GetCounter("commmat.events")
	pairsCounter  = obs.GetCounter("commmat.pairs")
	buildsCounter = obs.GetCounter("commmat.builds")
)

// denseCells is the largest p*p for which a matrix is stored, and
// built, as a dense p x p count grid (512 x 512 = 1 MiB of uint32)
// instead of the CSR form. Dense matrices contract with pure array
// indexing.
const denseCells = 1 << 18

// logCap is the number of events a CSR-form shard logs before draining
// them into a folded run: 8 MiB of packed keys. It is a variable only so
// tests can force drains with a tiny log.
var logCap = 1 << 20

// logPool recycles emptied shard logs across builds.
var logPool = sync.Pool{New: func() any { return new([]uint64) }}

// csr is a sorted (src, dst) -> count aggregation in compressed sparse
// row form: rowSrc lists the distinct source ranks in ascending order;
// row r's pairs are dsts/counts[rowStart[r]:rowStart[r+1]], with dsts
// ascending within the row. It is both the CSR matrix form and the
// shape of a drained shard run.
type csr struct {
	rowSrc   []int32
	rowStart []int32
	dsts     []int32
	counts   []uint32
}

// Matrix is an immutable communication matrix over p processor ranks:
// for every (src, dst) rank pair, the number of communication events
// from src to dst. Zero-count pairs are not represented (the dense form
// stores them as zero cells). Build one with a Builder.
type Matrix struct {
	p      int
	events uint64
	pairs  int
	// diag is the event total of the diagonal (src == dst) pairs.
	// Because hop distance is a metric — zero iff the ranks are equal —
	// a contraction's Count is always events and its Zeros always diag,
	// whatever the topology; the fused multi-table pass reads both here
	// instead of re-tallying them per table.
	diag uint64
	// dense[src*p+dst] holds the pair count when p*p <= denseCells.
	dense []uint32
	// csr holds the pairs otherwise.
	csr
}

// P returns the number of processor ranks the matrix is defined over.
func (m *Matrix) P() int { return m.p }

// Events returns the total number of aggregated communication events.
func (m *Matrix) Events() uint64 { return m.events }

// Pairs returns the number of distinct (src, dst) pairs with at least
// one event.
func (m *Matrix) Pairs() int { return m.pairs }

// DedupRatio returns Events/Pairs, the average number of events per
// distinct pair — the factor by which contraction shrinks the distance
// workload. It is 0 for an empty matrix.
func (m *Matrix) DedupRatio() float64 {
	if m.pairs == 0 {
		return 0
	}
	return float64(m.events) / float64(m.pairs)
}

// Visit calls fn for every pair with a nonzero count, in ascending
// (src, dst) order.
func (m *Matrix) Visit(fn func(src, dst int32, n uint32)) {
	if m.dense != nil {
		for src := 0; src < m.p; src++ {
			base := src * m.p
			for dst := 0; dst < m.p; dst++ {
				if n := m.dense[base+dst]; n != 0 {
					fn(int32(src), int32(dst), n)
				}
			}
		}
		return
	}
	for r, src := range m.rowSrc {
		for i := m.rowStart[r]; i < m.rowStart[r+1]; i++ {
			fn(src, m.dsts[i], m.counts[i])
		}
	}
}

// Builder aggregates a communication event stream into a Matrix.
// Create one Shard per concurrent producer; each Shard must be fed from
// a single goroutine at a time. Finalize (single goroutine, after all
// producers stop) merges the shards into the immutable Matrix.
type Builder struct {
	p      int
	shards []*Shard
}

// NewBuilder returns a builder over p ranks with the given number of
// shards (clamped to at least one).
func NewBuilder(p, workers int) *Builder {
	if p < 1 {
		panic("commmat: builder needs at least 1 rank")
	}
	if workers < 1 {
		workers = 1
	}
	b := &Builder{p: p, shards: make([]*Shard, workers)}
	for i := range b.shards {
		b.shards[i] = &Shard{p: uint32(p)}
	}
	return b
}

// Shard returns shard i (0 <= i < workers), allocating its working set
// on first use so shards that are never fed cost nothing.
func (b *Builder) Shard(i int) *Shard {
	s := b.shards[i]
	switch {
	case b.p*b.p <= denseCells:
		if s.cells == nil {
			s.cells = make([]uint32, b.p*b.p)
		}
	case s.hist == nil:
		s.hist = make([]uint32, b.p)
		s.log = (*logPool.Get().(*[]uint64))[:0]
	}
	return s
}

// Shard is one producer's private share of the aggregation: a p x p
// count grid in the dense form, otherwise an event log with its per-src
// histogram plus the sorted runs earlier full logs drained into.
type Shard struct {
	p     uint32
	cells []uint32 // dense form: cells[src*p+dst] counts the pair
	log   []uint64 // CSR form: packed src<<32|dst per event since the last drain
	hist  []uint32 // CSR form: log events per src
	runs  []csr    // CSR form: drained logs, largest first
}

// Add records one communication event from src to dst. Both must be in
// [0, p); an out-of-range pair panics, naming the pair.
func (s *Shard) Add(src, dst int32) { s.AddN(src, dst, 1) }

// AddN records n communication events from src to dst, exactly as n
// calls of Add would: one checked add to the pair's cell in the dense
// form, n log entries otherwise (so the fold sees the same stream).
// An out-of-range pair panics, naming it, whatever n is; n = 0 records
// nothing.
func (s *Shard) AddN(src, dst int32, n uint32) {
	if uint32(src) >= s.p || uint32(dst) >= s.p {
		panic(fmt.Sprintf("commmat: pair (%d, %d) out of range for %d ranks", src, dst, s.p))
	}
	if s.cells != nil {
		i := int(src)*int(s.p) + int(dst)
		c := s.cells[i]
		if c > math.MaxUint32-n {
			countOverflow(src, dst)
		}
		s.cells[i] = c + n
		return
	}
	for ; n > 0; n-- {
		if len(s.log) == logCap {
			s.drain()
		}
		s.log = append(s.log, uint64(src)<<32|uint64(dst))
		s.hist[src]++
	}
}

// drain folds the full log into a new sorted run and empties the log.
// Runs merge while the newer one is at least half the size of the one
// before it, so a shard holds O(log) runs and each pair is re-folded
// O(log) times however long the stream.
func (s *Shard) drain() {
	run, _ := fold(int(s.p), [][]uint64{s.log}, [][]uint32{s.hist}, nil)
	s.runs = append(s.runs, run)
	for n := len(s.runs); n >= 2 && len(s.runs[n-2].dsts) <= 2*len(s.runs[n-1].dsts); n-- {
		s.runs[n-2], _ = fold(int(s.p), nil, nil, s.runs[n-2:])
		s.runs = s.runs[:n-1]
	}
	s.log = s.log[:0]
	clear(s.hist)
}

// countOverflow reports a pair whose event count would pass the uint32
// range of the matrix counts.
func countOverflow(src, dst int32) {
	panic(fmt.Sprintf("commmat: event count of pair (%d, %d) overflows uint32", src, dst))
}

// folder is the reusable working memory of fold.
type folder struct {
	end     []int    // per-row scatter cursor, then the row's end
	row     []int32  // the logs' dsts bucketed by src row
	cnt     []uint32 // the current row's count per dst; zero between rows
	touched []int32  // dsts the current row has counted, p+1 long
	out     csr      // the growing output, copied out exact-size
}

var folderPool = sync.Pool{New: func() any { return new(folder) }}

// fold aggregates event logs (each event weight 1, hists[i] counting
// logs[i]'s events per src) and weighted sorted runs into one sorted
// csr over p ranks, returning it with its event total.
//
// One counting-sort scatter buckets the logs' dsts by src row; then
// each row folds its duplicates — log events and the row's run entries
// alike — in a p-wide counter that stays cache-resident and remembers
// the dsts it touched. The row's distinct dsts come out in order by a
// scan of the counter over their span when they fill a good part of
// it, else by sorting the few touched. Every addition is checked
// against the uint32 count range.
func fold(p int, logs [][]uint64, hists [][]uint32, runs []csr) (csr, uint64) {
	// Not deferred: a fold that panics on an overflow leaves its counter
	// dirty, so its folder must not return to the pool.
	f := folderPool.Get().(*folder)
	f.end = slices.Grow(f.end[:0], p)[:p]
	n := 0
	for src := range f.end {
		f.end[src] = n
		for _, h := range hists {
			n += int(h[src])
		}
	}
	row := slices.Grow(f.row[:0], n)[:n]
	f.row = row
	for _, l := range logs {
		// Producers emit long runs of one src, so the run's cursor stays
		// in a register instead of round-tripping through end[src].
		src, at := 0, f.end[0]
		for _, k := range l {
			if s := int(k >> 32); s != src {
				f.end[src], src, at = at, s, f.end[s]
			}
			row[at] = int32(uint32(k))
			at++
		}
		f.end[src] = at
	}

	if len(f.cnt) < p {
		f.cnt = make([]uint32, p)
		f.touched = make([]int32, p+1)
	}
	cnt, touched := f.cnt[:p], f.touched[:p+1]
	next := make([]int, len(runs)) // each run's next row
	out := csr{rowSrc: f.out.rowSrc[:0], rowStart: append(f.out.rowStart[:0], 0), dsts: f.out.dsts[:0], counts: f.out.counts[:0]}
	var events uint64
	lo := 0
	for src := 0; src < p; src++ {
		nt := 0
		for i := range runs {
			r := &runs[i]
			k := next[i]
			if k == len(r.rowSrc) || r.rowSrc[k] != int32(src) {
				continue
			}
			next[i]++
			for j := r.rowStart[k]; j < r.rowStart[k+1]; j++ {
				d, w := r.dsts[j], r.counts[j]
				c := cnt[d]
				if c == 0 {
					touched[nt] = d
					nt++
				} else if c > math.MaxUint32-w {
					countOverflow(int32(src), d)
				}
				cnt[d] = c + w
			}
		}
		// A row has at most p distinct dsts, so touched (p+1 long) can
		// take every dst unconditionally and advance only past first
		// touches: no branch on whether a dst repeats.
		for _, d := range row[lo:f.end[src]] {
			c := cnt[d]
			touched[nt] = d
			if c == 0 {
				nt++
			}
			if c == math.MaxUint32 {
				countOverflow(int32(src), d)
			}
			cnt[d] = c + 1
		}
		lo = f.end[src]
		if nt == 0 {
			continue
		}
		first, last := touched[0], touched[0]
		for _, d := range touched[:nt] {
			first, last = min(first, d), max(last, d)
		}
		if int(last-first) < 16*nt {
			for d := first; d <= last; d++ {
				if c := cnt[d]; c != 0 {
					cnt[d] = 0
					out.dsts = append(out.dsts, d)
					out.counts = append(out.counts, c)
					events += uint64(c)
				}
			}
		} else {
			slices.Sort(touched[:nt])
			for _, d := range touched[:nt] {
				c := cnt[d]
				cnt[d] = 0
				out.dsts = append(out.dsts, d)
				out.counts = append(out.counts, c)
				events += uint64(c)
			}
		}
		out.rowSrc = append(out.rowSrc, int32(src))
		out.rowStart = append(out.rowStart, int32(len(out.dsts)))
	}
	res := csr{
		rowSrc:   slices.Clone(out.rowSrc),
		rowStart: slices.Clone(out.rowStart),
		dsts:     slices.Clone(out.dsts),
		counts:   slices.Clone(out.counts),
	}
	f.out = out
	folderPool.Put(f)
	return res, events
}

// Finalize merges all shards into the immutable Matrix and records the
// build in the commmat metrics. The builder must not be reused after.
func (b *Builder) Finalize() *Matrix {
	defer obs.StartSpan("commmat.finalize").End()
	m := &Matrix{p: b.p}
	if b.p*b.p <= denseCells {
		b.finalizeDense(m)
	} else {
		var logs [][]uint64
		var hists [][]uint32
		var runs []csr
		for _, s := range b.shards {
			if s.hist != nil {
				logs, hists = append(logs, s.log), append(hists, s.hist)
				runs = append(runs, s.runs...)
			}
		}
		m.csr, m.events = fold(b.p, logs, hists, runs)
		m.pairs = len(m.dsts)
		for _, l := range logs {
			logPool.Put(&l)
		}
	}
	m.computeDiag()
	// The matrix owns a shard grid and the pool owns the logs now: a
	// shard fed after Finalize must panic (p = 0), not write into them.
	for _, s := range b.shards {
		*s = Shard{}
	}
	b.shards = nil
	buildsCounter.Inc()
	eventsCounter.Add(m.events)
	pairsCounter.Add(uint64(m.pairs))
	return m
}

// finalizeDense sums the shards' count grids into the first one fed,
// which becomes the matrix's dense grid.
func (b *Builder) finalizeDense(m *Matrix) {
	for _, s := range b.shards {
		if s.cells == nil {
			continue
		}
		if m.dense == nil {
			m.dense = s.cells
			continue
		}
		for i, c := range s.cells {
			t := m.dense[i] + c
			if t < c {
				countOverflow(int32(i/b.p), int32(i%b.p))
			}
			m.dense[i] = t
		}
	}
	if m.dense == nil {
		m.dense = make([]uint32, b.p*b.p)
	}
	for _, c := range m.dense {
		if c != 0 {
			m.pairs++
			m.events += uint64(c)
		}
	}
}

// computeDiag tallies the diagonal event total once at construction:
// a dense diagonal walk, or one binary search per CSR row (dsts are
// ascending within a row).
func (m *Matrix) computeDiag() {
	m.diag = 0
	if m.dense != nil {
		for src := 0; src < m.p; src++ {
			m.diag += uint64(m.dense[src*m.p+src])
		}
		return
	}
	for r, src := range m.rowSrc {
		lo, hi := m.rowStart[r], m.rowStart[r+1]
		row := m.dsts[lo:hi]
		i := sort.Search(len(row), func(i int) bool { return row[i] >= src })
		if i < len(row) && row[i] == src {
			m.diag += uint64(m.counts[int(lo)+i])
		}
	}
}
