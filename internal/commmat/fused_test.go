package commmat

import (
	"fmt"
	"runtime"
	"testing"

	"sfcacd/internal/acd"
	"sfcacd/internal/obs"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

// sixTopologies instantiates one of every topology kind over p ranks
// (p must be a power of 4), placing mesh and torus along the given
// curve.
func sixTopologies(t *testing.T, p int, placement sfc.Curve) []topology.Topology {
	t.Helper()
	topos := make([]topology.Topology, 0, len(topology.Kinds))
	for _, kind := range topology.Kinds {
		topo, err := topology.New(kind, p, placement)
		if err != nil {
			t.Fatal(err)
		}
		topos = append(topos, topo)
	}
	return topos
}

// freshTables wraps each topology in its own unused distance table, so
// the ski-rental state (pending lookups, materialized rows) starts
// identical for every contraction path under comparison.
func freshTables(topos []topology.Topology) []*topology.DistanceTable {
	dts := make([]*topology.DistanceTable, len(topos))
	for i, topo := range topos {
		dts[i] = topology.NewDistanceTable(topo)
	}
	return dts
}

// seqContractTable is the sequential reference the fused pass is
// checked against: rows in order, each asking the table for its row
// with RowFor and the row's lookup volume (p for a dense row, the
// row's pair count for CSR), contracting with array indexing when the
// row is materialized and with direct Distance calls otherwise.
func seqContractTable(m *Matrix, dt *topology.DistanceTable, acc *acd.Accumulator, weight int) {
	t := dt.Underlying()
	direct := uint64(0)
	if m.dense != nil {
		for src := 0; src < m.p; src++ {
			base := src * m.p
			if row := dt.RowFor(src, m.p); row != nil {
				for dst := 0; dst < m.p; dst++ {
					if n := m.dense[base+dst]; n != 0 {
						acc.AddN(int(row[dst]), weight*int(n))
					}
				}
				continue
			}
			for dst := 0; dst < m.p; dst++ {
				if n := m.dense[base+dst]; n != 0 {
					acc.AddN(t.Distance(src, dst), weight*int(n))
					direct++
				}
			}
		}
		topology.CountDistanceQueries(direct)
		return
	}
	for r, src := range m.rowSrc {
		lo, hi := m.rowStart[r], m.rowStart[r+1]
		if row := dt.RowFor(int(src), int(hi-lo)); row != nil {
			for i := lo; i < hi; i++ {
				acc.AddN(int(row[m.dsts[i]]), weight*int(m.counts[i]))
			}
			continue
		}
		for i := lo; i < hi; i++ {
			acc.AddN(t.Distance(int(src), int(m.dsts[i])), weight*int(m.counts[i]))
		}
		direct += uint64(hi - lo)
	}
	topology.CountDistanceQueries(direct)
}

// csrMatrix builds the CSR form of the visited pairs whatever p is —
// the form a Mutable's contraction gathers into — for the sequential
// reference.
func csrMatrix(p int, visit func(fn func(src, dst int32, n uint32))) *Matrix {
	m := &Matrix{p: p, csr: csr{rowStart: []int32{0}}}
	visit(func(src, dst int32, n uint32) {
		if len(m.rowSrc) == 0 || m.rowSrc[len(m.rowSrc)-1] != src {
			m.rowSrc = append(m.rowSrc, src)
			m.rowStart = append(m.rowStart, m.rowStart[len(m.rowStart)-1])
		}
		m.dsts = append(m.dsts, dst)
		m.counts = append(m.counts, n)
		m.rowStart[len(m.rowStart)-1]++
		m.events += uint64(n)
		m.pairs++
	})
	m.computeDiag()
	return m
}

// contractOne runs the fused pass over a single table.
func contractOne(m *Matrix, dt *topology.DistanceTable, acc *acd.Accumulator, weight, workers int) {
	m.contractTableMulti([]*topology.DistanceTable{dt}, []*acd.Accumulator{acc}, weight, workers)
}

// TestFusedContractMultiEquivalence is the fused-vs-sequential
// property test: across matrix forms (dense, and CSR at two rank
// counts), seeds, placement curves, all six topology kinds, Sym and
// non-Sym weighting, and worker counts, the fused pass — over all six
// tables and over one table at a time — must produce exactly
// (Sum/Count/Zeros) the sequential reference's results.
func TestFusedContractMultiEquivalence(t *testing.T) {
	curves := sfc.All()
	workerCounts := []int{1, 3, runtime.GOMAXPROCS(0)}
	cases := []struct {
		name string
		p, n int
	}{
		{"dense", 64, 5000},      // p*p <= denseCells
		{"fullCSR", 1024, 20000}, // CSR output
		{"banded", 4096, 40000},  // CSR at table12 scale
	}
	for _, tc := range cases {
		for seed := int64(1); seed <= 2; seed++ {
			curve := curves[int(seed)%len(curves)]
			t.Run(fmt.Sprintf("%s/seed%d/%s", tc.name, seed, curve.Name()), func(t *testing.T) {
				m := buildWith(tc.p, 2, randomEvents(seed, tc.p, tc.n))
				topos := sixTopologies(t, tc.p, curve)

				// Sequential oracle on fresh tables, per weighting.
				seq := make([]acd.Accumulator, len(topos))
				seqSym := make([]acd.Accumulator, len(topos))
				for i, dt := range freshTables(topos) {
					seqContractTable(m, dt, &seq[i], 1)
				}
				for i, dt := range freshTables(topos) {
					seqContractTable(m, dt, &seqSym[i], 2)
				}

				for _, workers := range workerCounts {
					got := make([]acd.Accumulator, len(topos))
					accs := make([]*acd.Accumulator, len(topos))
					for i := range got {
						accs[i] = &got[i]
					}
					m.ContractTableMulti(freshTables(topos), accs, workers)
					for i := range topos {
						if got[i] != seq[i] {
							t.Fatalf("workers=%d topo=%s: fused %+v != sequential %+v",
								workers, topos[i].Name(), got[i], seq[i])
						}
						got[i] = acd.Accumulator{}
					}
					m.ContractTableMultiSym(freshTables(topos), accs, workers)
					for i := range topos {
						if got[i] != seqSym[i] {
							t.Fatalf("workers=%d topo=%s: fused Sym %+v != sequential %+v",
								workers, topos[i].Name(), got[i], seqSym[i])
						}
					}
					for i, dt := range freshTables(topos) {
						var one, oneSym acd.Accumulator
						contractOne(m, dt, &one, 1, workers)
						contractOne(m, topology.NewDistanceTable(topos[i]), &oneSym, 2, workers)
						if one != seq[i] || oneSym != seqSym[i] {
							t.Fatalf("workers=%d topo=%s: one-table fused %+v / Sym %+v != sequential %+v / %+v",
								workers, topos[i].Name(), one, oneSym, seq[i], seqSym[i])
						}
					}
				}
			})
		}
	}
}

// TestFusedDistanceQueryAccounting pins the fused pass's
// topology.distance.analytic accounting against the sequential
// reference: the serial plan step replays the reference's RowFor
// sequence per table, so the same rows materialize and the same
// per-table direct Distance calls are tallied — at any worker count,
// for six tables at once and for one table at a time.
func TestFusedDistanceQueryAccounting(t *testing.T) {
	counter := obs.GetCounter("topology.distance.analytic")
	curves := sfc.All()
	for _, tc := range []struct {
		name string
		p, n int
	}{
		{"dense", 64, 5000},
		{"banded", 4096, 40000},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := buildWith(tc.p, 2, randomEvents(int64(tc.p)+3, tc.p, tc.n))
			topos := sixTopologies(t, tc.p, curves[0])

			before := counter.Value()
			for _, dt := range freshTables(topos) {
				var acc acd.Accumulator
				seqContractTable(m, dt, &acc, 2)
			}
			seqDelta := counter.Value() - before

			for _, workers := range []int{1, 3, 8} {
				got := make([]acd.Accumulator, len(topos))
				accs := make([]*acd.Accumulator, len(topos))
				for i := range got {
					accs[i] = &got[i]
				}
				before = counter.Value()
				m.ContractTableMultiSym(freshTables(topos), accs, workers)
				if delta := counter.Value() - before; delta != seqDelta {
					t.Fatalf("workers=%d: fused pass recorded %d distance queries, sequential %d",
						workers, delta, seqDelta)
				}
				before = counter.Value()
				for _, dt := range freshTables(topos) {
					var acc acd.Accumulator
					contractOne(m, dt, &acc, 2, workers)
				}
				if delta := counter.Value() - before; delta != seqDelta {
					t.Fatalf("workers=%d: one-table passes recorded %d distance queries, sequential %d",
						workers, delta, seqDelta)
				}
			}
		})
	}
}

// TestMutableContractTableMultiEquivalence: the Mutable's fused pass,
// over six tables and over one, must equal the sequential reference
// on the CSR form of its pairs exactly, including the distance-query
// accounting — also at a p whose materialized Matrix is dense, since
// the Mutable always contracts its pairs in CSR form.
func TestMutableContractTableMultiEquivalence(t *testing.T) {
	counter := obs.GetCounter("topology.distance.analytic")
	for _, p := range []int{64, 1024} {
		mm := NewMutable(p)
		for _, e := range randomEvents(17, p, 20000) {
			src, dst := e[0], e[1]
			if dst < src {
				src, dst = dst, src
			}
			mm.Add(src, dst)
		}
		topos := sixTopologies(t, p, sfc.All()[0])
		ref := csrMatrix(p, mm.Visit)

		before := counter.Value()
		seq := make([]acd.Accumulator, len(topos))
		for i, dt := range freshTables(topos) {
			seqContractTable(ref, dt, &seq[i], 2)
		}
		seqDelta := counter.Value() - before

		got := make([]acd.Accumulator, len(topos))
		accs := make([]*acd.Accumulator, len(topos))
		for i := range got {
			accs[i] = &got[i]
		}
		before = counter.Value()
		mm.ContractTableMultiSym(freshTables(topos), accs)
		fusedDelta := counter.Value() - before
		for i := range topos {
			if got[i] != seq[i] {
				t.Fatalf("p=%d topo=%s: fused %+v != sequential %+v", p, topos[i].Name(), got[i], seq[i])
			}
		}
		if fusedDelta != seqDelta {
			t.Fatalf("p=%d: fused pass recorded %d distance queries, sequential %d", p, fusedDelta, seqDelta)
		}

		before = counter.Value()
		for i, dt := range freshTables(topos) {
			var one acd.Accumulator
			mm.ContractTableMultiSym([]*topology.DistanceTable{dt}, []*acd.Accumulator{&one})
			if one != seq[i] {
				t.Fatalf("p=%d topo=%s: one-table pass %+v != sequential %+v", p, topos[i].Name(), one, seq[i])
			}
		}
		if delta := counter.Value() - before; delta != seqDelta {
			t.Fatalf("p=%d: one-table passes recorded %d distance queries, sequential %d", p, delta, seqDelta)
		}
	}
}

// BenchmarkContractMulti measures one fused pass over K tables against
// K one-table passes ("seq") at 1 and 6 topologies on both matrix
// forms. The 6-topology fused case is the headline: one pair stream
// instead of six, and the topology-independent tallies applied once.
func BenchmarkContractMulti(b *testing.B) {
	curves := sfc.All()
	for _, form := range []struct {
		name string
		p, n int
	}{
		{"dense", 256, 60000},
		{"csr", 4096, 120000},
	} {
		m := buildWith(form.p, 2, randomEvents(int64(form.p), form.p, form.n))
		allTopos := make([]topology.Topology, 0, len(topology.Kinds))
		for _, kind := range topology.Kinds {
			topo, err := topology.New(kind, form.p, curves[0])
			if err != nil {
				b.Fatal(err)
			}
			allTopos = append(allTopos, topo)
		}
		for _, k := range []int{1, 6} {
			topos := allTopos[:k]
			dts := freshTablesB(topos)
			// Warm the tables so both variants contract fully
			// materialized rows; the benchmark isolates contraction.
			warm := make([]acd.Accumulator, k)
			for i, dt := range dts {
				contractOne(m, dt, &warm[i], 2, 1)
			}
			b.Run(fmt.Sprintf("%s/topos=%d/seq", form.name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					accs := make([]acd.Accumulator, k)
					for j, dt := range dts {
						contractOne(m, dt, &accs[j], 2, 1)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/topos=%d/fused", form.name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					accs := make([]acd.Accumulator, k)
					ptrs := make([]*acd.Accumulator, k)
					for j := range accs {
						ptrs[j] = &accs[j]
					}
					m.ContractTableMultiSym(dts, ptrs, 1)
				}
			})
		}
	}
}

func freshTablesB(topos []topology.Topology) []*topology.DistanceTable {
	dts := make([]*topology.DistanceTable, len(topos))
	for i, topo := range topos {
		dts[i] = topology.NewDistanceTable(topo)
	}
	return dts
}
