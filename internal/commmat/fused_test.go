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

// TestFusedContractMultiEquivalence is the fused-vs-sequential
// property test: across matrix forms (dense, and CSR at two rank
// counts), seeds, placement curves, all six topology kinds, Sym and
// non-Sym weighting, and worker counts, the fused pass must produce
// exactly (Sum/Count/Zeros) the per-topology ContractTable results.
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
					m.ContractTable(dt, &seq[i])
				}
				for i, dt := range freshTables(topos) {
					m.ContractTableSym(dt, &seqSym[i])
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
				}
			})
		}
	}
}

// TestFusedDistanceQueryAccounting pins the fused pass's
// topology.distance.analytic accounting against the sequential path:
// the serial plan step replays the sequential RowFor sequence per
// table, so the same rows materialize and the same per-table direct
// Distance calls are tallied — at any worker count.
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
				m.ContractTableSym(dt, &acc)
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
			}
		})
	}
}

// TestMutableContractTableMultiEquivalence: the Mutable fused pass must
// equal per-table ContractTableSym exactly, including its distance-
// query accounting.
func TestMutableContractTableMultiEquivalence(t *testing.T) {
	const p, n = 1024, 20000
	counter := obs.GetCounter("topology.distance.analytic")
	mm := NewMutable(p)
	for _, e := range randomEvents(17, p, n) {
		src, dst := e[0], e[1]
		if dst < src {
			src, dst = dst, src
		}
		mm.Add(src, dst)
	}
	topos := sixTopologies(t, p, sfc.All()[0])

	before := counter.Value()
	seq := make([]acd.Accumulator, len(topos))
	for i, dt := range freshTables(topos) {
		mm.ContractTableSym(dt, &seq[i])
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
			t.Fatalf("topo=%s: fused %+v != sequential %+v", topos[i].Name(), got[i], seq[i])
		}
	}
	if fusedDelta != seqDelta {
		t.Fatalf("fused pass recorded %d distance queries, sequential %d", fusedDelta, seqDelta)
	}
}

// BenchmarkContractMulti measures the fused pass against the
// sequential per-topology loop at 1 and 6 topologies on both matrix
// forms. The 6-topology fused case is the headline: one pair stream
// instead of six, and the topology-independent tallies computed once.
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
				m.ContractTableSym(dt, &warm[i])
			}
			b.Run(fmt.Sprintf("%s/topos=%d/seq", form.name, k), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					accs := make([]acd.Accumulator, k)
					for j, dt := range dts {
						m.ContractTableSym(dt, &accs[j])
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
