package topology

import (
	"slices"
	"testing"

	"sfcacd/internal/sfc"
)

// rowBatch is one batched row request: RowsFor(srcs, pairs), or, when
// dense is set, DenseRows(pairs[0]) over every source.
type rowBatch struct {
	name  string
	srcs  []int32
	pairs []int32
	dense bool
}

// uniformBatch asks for sources lo..hi-1 with the same lookup volume.
func uniformBatch(name string, lo, hi int, pairs int32) rowBatch {
	b := rowBatch{name: name}
	for src := lo; src < hi; src++ {
		b.srcs = append(b.srcs, int32(src))
		b.pairs = append(b.pairs, pairs)
	}
	return b
}

// sameTableState compares everything a later lookup can observe: the
// full table, the lazy rows, the pending volume and the row budget.
func sameTableState(t *testing.T, step string, a, b *DistanceTable) {
	t.Helper()
	if (a.full == nil) != (b.full == nil) || !slices.Equal(a.full, b.full) {
		t.Fatalf("%s: full tables differ (per-row built %v, batch built %v)", step, a.full != nil, b.full != nil)
	}
	if len(a.rows) != len(b.rows) {
		t.Fatalf("%s: %d lazy rows per-row, %d batched", step, len(a.rows), len(b.rows))
	}
	for src, row := range a.rows {
		if !slices.Equal(row, b.rows[src]) {
			t.Fatalf("%s: lazy row %d differs", step, src)
		}
	}
	if a.pending != b.pending || a.budget != b.budget {
		t.Fatalf("%s: pending/budget %d/%d per-row, %d/%d batched", step, a.pending, a.budget, b.pending, b.budget)
	}
}

// TestRowsForMatchesRowFor pins RowsFor and DenseRows to their
// specification, one RowFor call per source in order. On twin fresh
// tables, each batch must return the same rows (nil, or the same
// distances), account the same topology.distance.analytic queries,
// and leave the same state behind. The batches walk a table that
// promotes to the full form and one too large for it (lazy rows only),
// starting with volumes that take RowsFor's bulk no-build fast path.
func TestRowsForMatchesRowFor(t *testing.T) {
	for _, tc := range []struct {
		name    string
		topo    Topology
		batches []rowBatch
	}{
		{
			name: "full/RowsFor",
			// p*p = 65,536 <= eagerCells: promotes once 16,384 lookups
			// are pending; a lazy row needs 64 lookups.
			topo: NewTorus(4, sfc.Hilbert),
			batches: []rowBatch{
				uniformBatch("fast path", 0, 100, 10),
				{name: "lazy rows", srcs: []int32{5, 7, 5, 9}, pairs: []int32{3, 64, 70, 63}},
				uniformBatch("cached rows", 0, 12, 1),
				uniformBatch("promotes mid-batch", 0, 256, 100),
				{name: "after promotion", srcs: []int32{3, 200, 3}, pairs: []int32{1, 1, 1}},
			},
		},
		{
			// The same shape through DenseRows: small volumes stay
			// unbuilt, then a full scan promotes part way through.
			name: "full/DenseRows",
			topo: NewTorus(4, sfc.Morton),
			batches: []rowBatch{
				{name: "dense small", pairs: []int32{1}, dense: true},
				{name: "dense promotes", pairs: []int32{256}, dense: true},
				{name: "dense after promotion", pairs: []int32{1}, dense: true},
			},
		},
		{
			// p*p > eagerCells: never promotes; a lazy row needs 2,048
			// lookups.
			name: "lazy",
			topo: NewHypercube(13),
			batches: []rowBatch{
				uniformBatch("fast path", 0, 1000, 100),
				{name: "lazy rows", srcs: []int32{1, 2, 1, 3}, pairs: []int32{2048, 10, 5, 3000}},
				{name: "cached rows", srcs: []int32{3, 4, 1}, pairs: []int32{1, 2047, 1}},
				{name: "dense unbuilt", pairs: []int32{100}, dense: true},
			},
		},
	} {
		t.Run(tc.name, func(t *testing.T) {
			perRow, batched := NewDistanceTable(tc.topo), NewDistanceTable(tc.topo)
			p := tc.topo.P()
			for _, b := range tc.batches {
				srcs, pairs := b.srcs, b.pairs
				if b.dense {
					all := uniformBatch("", 0, p, b.pairs[0])
					srcs, pairs = all.srcs, all.pairs
				}
				before := analyticQueries.Value()
				want := make([][]uint16, len(srcs))
				for i, src := range srcs {
					want[i] = perRow.RowFor(int(src), int(pairs[i]))
				}
				wantDelta := analyticQueries.Value() - before

				before = analyticQueries.Value()
				got := make([][]uint16, len(srcs))
				if b.dense {
					batched.DenseRows(int(b.pairs[0]), got)
				} else {
					batched.RowsFor(srcs, pairs, got)
				}
				gotDelta := analyticQueries.Value() - before

				for i := range srcs {
					if (want[i] == nil) != (got[i] == nil) || !slices.Equal(want[i], got[i]) {
						t.Fatalf("%s: row %d (src %d): per-row nil=%v, batched nil=%v or contents differ",
							b.name, i, srcs[i], want[i] == nil, got[i] == nil)
					}
				}
				if gotDelta != wantDelta {
					t.Fatalf("%s: batch accounted %d distance queries, per-row %d", b.name, gotDelta, wantDelta)
				}
				sameTableState(t, b.name, perRow, batched)
			}
			if perRow.full == nil && p*p <= eagerCells {
				t.Fatalf("the batches never promoted the table")
			}
			if len(perRow.rows) == 0 && p*p > eagerCells {
				t.Fatalf("the batches built no lazy row")
			}
		})
	}
}
