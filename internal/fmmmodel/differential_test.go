package fmmmodel

import (
	"fmt"
	"runtime"
	"testing"

	"sfcacd/internal/acd"
	"sfcacd/internal/dist"
	"sfcacd/internal/geom"
	"sfcacd/internal/oracle"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

// The production path (key-space enumeration, matrix aggregation,
// contraction) must reproduce the naive per-event definitions of
// internal/oracle bit for bit: identical Sum, Count, and Zeros, not
// merely close ACD values. Integer accumulation is commutative, so any
// divergence is a real defect — a lost or double-counted event, a
// broken symmetry argument, or a wrong distance.

// allTopologies returns one instance of each of the paper's six network
// types, sized for p = 64.
func allTopologies() []topology.Topology {
	return []topology.Topology{
		topology.NewBus(64),
		topology.NewRing(64),
		topology.NewMesh(3, sfc.Hilbert),
		topology.NewTorus(3, sfc.RowMajor),
		topology.NewHypercube(6),
		topology.NewQuadtreeNet(3),
	}
}

var metrics = []geom.Metric{geom.MetricChebyshev, geom.MetricManhattan}

// checkAgainstOracle compares NFIMulti and FFIMulti on every topology
// with the oracle, at worker counts 1, 3 and GOMAXPROCS. It also
// contracts the matrices one topology at a time, through the per-pair
// reference (oracle.Contract) and a one-table fused pass, so the
// symmetric (near field, interaction list) and plain (interpolation)
// contractions are pinned separately from the six-table pass.
func checkAgainstOracle(t *testing.T, name string, a *acd.Assignment, topos []topology.Topology) {
	t.Helper()
	workerCounts := []int{1, 3, runtime.GOMAXPROCS(0)}
	for _, radius := range []int{1, 2} {
		for _, m := range metrics {
			want := make([]acd.Accumulator, len(topos))
			for i, topo := range topos {
				want[i] = oracle.NFI(a, topo, radius, m)
			}
			for _, w := range workerCounts {
				opts := NFIOptions{Radius: radius, Metric: m, Workers: w}
				got := NFIMulti(a, topos, opts)
				mat := NFIMatrix(a, opts)
				for i, topo := range topos {
					viaSym := oracle.Contract(mat, topo, 2)
					var viaTable acd.Accumulator
					mat.ContractTableMultiSym(oneTable(topo), []*acd.Accumulator{&viaTable}, w)
					if got[i] != want[i] || viaSym != want[i] || viaTable != want[i] {
						t.Errorf("%s r=%d %s workers=%d %s: NFI fused %+v / sym %+v / table %+v, oracle %+v",
							name, radius, m, w, topo.Name(), got[i], viaSym, viaTable, want[i])
					}
				}
			}
		}
	}
	want := make([]FFIResult, len(topos))
	for i, topo := range topos {
		want[i] = FFIResult(oracle.FFI(a, topo))
	}
	for _, w := range workerCounts {
		got := FFIMulti(a, topos, FFIOptions{Workers: w})
		ms := FFIMatricesFromIndex(a.KeyIndex(), a.P, w)
		for i, topo := range topos {
			interp, il := oracle.Contract(ms.Interpolation, topo, 1), oracle.Contract(ms.InteractionList, topo, 2)
			var interpT, ilT acd.Accumulator
			ms.Interpolation.ContractTableMulti(oneTable(topo), []*acd.Accumulator{&interpT}, w)
			ms.InteractionList.ContractTableMultiSym(oneTable(topo), []*acd.Accumulator{&ilT}, w)
			if got[i] != want[i] || interp != want[i].Interpolation || il != want[i].InteractionList ||
				interpT != want[i].Interpolation || ilT != want[i].InteractionList {
				t.Errorf("%s workers=%d %s: FFI fused %+v / per-topology interp %+v %+v il %+v %+v, oracle %+v",
					name, w, topo.Name(), got[i], interp, interpT, il, ilT, want[i])
			}
		}
	}
}

// oneTable wraps a topology in a fresh single-entry distance-table
// list for a one-table fused pass.
func oneTable(topo topology.Topology) []*topology.DistanceTable {
	return []*topology.DistanceTable{topology.NewDistanceTable(topo)}
}

// TestDifferentialMatrixVsDirect sweeps seeds x particle curves x radii
// x metrics x worker counts and checks the matrix path against the
// direct per-event oracle on all six topologies, for both interaction
// families.
func TestDifferentialMatrixVsDirect(t *testing.T) {
	const order = 6
	topos := allTopologies()
	curves := []sfc.Curve{sfc.RowMajor, sfc.Morton, sfc.Gray, sfc.Hilbert}
	for seed := int64(1); seed <= 2; seed++ {
		pts, err := dist.SampleUnique(dist.Uniform, rng.New(uint64(seed)), order, 400)
		if err != nil {
			t.Fatal(err)
		}
		for _, curve := range curves {
			a, err := acd.Assign(pts, curve, order, 64)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, fmt.Sprintf("seed%d/%s", seed, curve.Name()), a, topos)
		}
	}
}

// TestDifferentialKeysEngine runs the same differential on explicit
// ownerships (acd.FromOwners): ranks that are neither monotone along
// any curve nor balanced, as in the dynamic static-owner policy, so a
// cell's representative is not its first particle in curve order.
func TestDifferentialKeysEngine(t *testing.T) {
	const order = 6
	topos := allTopologies()
	for seed := uint64(1); seed <= 2; seed++ {
		for _, s := range []dist.Sampler{dist.Uniform, dist.Normal} {
			pts, err := dist.SampleUnique(s, rng.New(seed), order, 400)
			if err != nil {
				t.Fatal(err)
			}
			r := rng.New(seed + 100)
			ranks := make([]int32, len(pts))
			for i := range ranks {
				ranks[i] = int32(r.Intn(64))
			}
			a, err := acd.FromOwners(pts, ranks, order, 64)
			if err != nil {
				t.Fatal(err)
			}
			checkAgainstOracle(t, fmt.Sprintf("seed%d/%s", seed, s.Name()), a, topos)
		}
	}
}

// TestNFIMatrixContractsExactly pins the symmetric-canonical
// convention at the matrix level: every stored pair has src <= dst,
// and contracting the canonical matrix with both-direction weighting —
// by the per-pair reference and by a one-table fused pass — reproduces
// the ordered stream of the oracle.
func TestNFIMatrixContractsExactly(t *testing.T) {
	const order = 6
	pts, err := dist.SampleUnique(dist.Normal, rng.New(9), order, 500)
	if err != nil {
		t.Fatal(err)
	}
	a, err := acd.Assign(pts, sfc.Morton, order, 64)
	if err != nil {
		t.Fatal(err)
	}
	m := NFIMatrix(a, NFIOptions{Radius: 1, Metric: geom.MetricChebyshev})
	m.Visit(func(src, dst int32, _ uint32) {
		if src > dst {
			t.Fatalf("pair (%d,%d) not canonical", src, dst)
		}
	})
	for _, topo := range allTopologies() {
		viaSym := oracle.Contract(m, topo, 2)
		var viaTable acd.Accumulator
		m.ContractTableMultiSym(oneTable(topo), []*acd.Accumulator{&viaTable}, 1)
		want := oracle.NFI(a, topo, 1, geom.MetricChebyshev)
		if viaSym != want || viaTable != want {
			t.Errorf("%s: reference %+v / one-table fused %+v != oracle %+v", topo.Name(), viaSym, viaTable, want)
		}
	}
}
