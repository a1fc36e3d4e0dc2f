package fmmmodel

import (
	"fmt"
	"testing"

	"sfcacd/internal/acd"
	"sfcacd/internal/dist"
	"sfcacd/internal/geom"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

// nfiOne and ffiOne evaluate a single topology: the one-element case of
// the multi-topology path, as the public sfcacd.NFI/FFI do.
func nfiOne(a *acd.Assignment, topo topology.Topology, opts NFIOptions) acd.Accumulator {
	return NFIMulti(a, []topology.Topology{topo}, opts)[0]
}

func ffiOne(a *acd.Assignment, topo topology.Topology, opts FFIOptions) FFIResult {
	return FFIMulti(a, []topology.Topology{topo}, opts)[0]
}

// TestNFIMultiMatchesSingle: evaluating N topologies in one fused pass
// gives exactly the same accumulators as N single-topology passes.
func TestNFIMultiMatchesSingle(t *testing.T) {
	const order = 6
	pts, err := dist.SampleUnique(dist.Uniform, rng.New(1), order, 500)
	if err != nil {
		t.Fatal(err)
	}
	a, err := acd.Assign(pts, sfc.Hilbert, order, 64)
	if err != nil {
		t.Fatal(err)
	}
	topos := []topology.Topology{
		topology.NewTorus(3, sfc.Hilbert),
		topology.NewTorus(3, sfc.RowMajor),
		topology.NewMesh(3, sfc.Gray),
		topology.NewHypercube(6),
		topology.NewBus(64),
	}
	opts := NFIOptions{Radius: 2, Metric: geom.MetricChebyshev}
	multi := NFIMulti(a, topos, opts)
	for i, topo := range topos {
		single := nfiOne(a, topo, opts)
		if multi[i] != single {
			t.Fatalf("topology %d (%s): multi %+v != single %+v", i, topo.Name(), multi[i], single)
		}
	}
}

// TestFFIMultiMatchesSingle mirrors the NFI check for the far field.
func TestFFIMultiMatchesSingle(t *testing.T) {
	const order = 5
	pts, err := dist.SampleUnique(dist.Exponential, rng.New(2), order, 300)
	if err != nil {
		t.Fatal(err)
	}
	a, err := acd.Assign(pts, sfc.Morton, order, 16)
	if err != nil {
		t.Fatal(err)
	}
	topos := []topology.Topology{
		topology.NewTorus(2, sfc.Hilbert),
		topology.NewQuadtreeNet(2),
		topology.NewRing(16),
	}
	multi := FFIMulti(a, topos, FFIOptions{})
	for i, topo := range topos {
		single := ffiOne(a, topo, FFIOptions{})
		if multi[i] != single {
			t.Fatalf("topology %d (%s): multi %+v != single %+v", i, topo.Name(), multi[i], single)
		}
	}
}

// TestMultiDeterministicAcrossWorkers pins the parallel multi paths.
func TestMultiDeterministicAcrossWorkers(t *testing.T) {
	const order = 6
	pts, err := dist.SampleUnique(dist.Normal, rng.New(3), order, 600)
	if err != nil {
		t.Fatal(err)
	}
	a, err := acd.Assign(pts, sfc.Gray, order, 64)
	if err != nil {
		t.Fatal(err)
	}
	topos := []topology.Topology{
		topology.NewTorus(3, sfc.Hilbert),
		topology.NewMesh(3, sfc.Morton),
	}
	nfiBase := NFIMulti(a, topos, NFIOptions{Radius: 1, Workers: 1})
	ffiBase := FFIMulti(a, topos, FFIOptions{Workers: 1})
	for _, w := range []int{2, 8, 32} {
		nfi := NFIMulti(a, topos, NFIOptions{Radius: 1, Workers: w})
		ffi := FFIMulti(a, topos, FFIOptions{Workers: w})
		for i := range topos {
			if nfi[i] != nfiBase[i] || ffi[i] != ffiBase[i] {
				t.Fatalf("workers=%d: results diverged", w)
			}
		}
	}
}

// TestKeysEngineWorkerInvariance requires byte-identical results at
// every worker count on all six topologies — the key-space engine must
// preserve the sweep scheduler's determinism guarantee.
func TestKeysEngineWorkerInvariance(t *testing.T) {
	const order = 6
	topos := allTopologies()
	pts, err := dist.SampleUnique(dist.Normal, rng.New(41), order, 500)
	if err != nil {
		t.Fatal(err)
	}
	a, err := acd.Assign(pts, sfc.Hilbert, order, 64)
	if err != nil {
		t.Fatal(err)
	}
	nfiBase := NFIMulti(a, topos, NFIOptions{Workers: 1})
	ffiBase := FFIMulti(a, topos, FFIOptions{Workers: 1})
	for _, workers := range []int{2, 3, 8} {
		nfi := NFIMulti(a, topos, NFIOptions{Workers: workers})
		ffi := FFIMulti(a, topos, FFIOptions{Workers: workers})
		for i := range topos {
			if nfi[i] != nfiBase[i] {
				t.Errorf("workers=%d %s: NFI %+v != single-worker %+v", workers, topos[i].Name(), nfi[i], nfiBase[i])
			}
			if ffi[i] != ffiBase[i] {
				t.Errorf("workers=%d %s: FFI %+v != single-worker %+v", workers, topos[i].Name(), ffi[i], ffiBase[i])
			}
		}
	}
}

// BenchmarkFFIMatricesFromIndex times the far-field matrix build from
// a ready key index: the Figure 6 shape scaled down (64 ranks over a
// sparse order-10 grid, where nearly every child group has one
// representative and collapses) and the scaled table12 shape (4,096
// ranks, where many groups straddle a rank boundary).
func BenchmarkFFIMatricesFromIndex(b *testing.B) {
	for _, tc := range []struct {
		order uint
		n, p  int
	}{{10, 62500, 64}, {8, 15625, 4096}} {
		pts, err := dist.SampleUnique(dist.Uniform, rng.New(uint64(tc.n)), tc.order, tc.n)
		if err != nil {
			b.Fatal(err)
		}
		a, err := acd.Assign(pts, sfc.Hilbert, tc.order, tc.p)
		if err != nil {
			b.Fatal(err)
		}
		ix := a.KeyIndex()
		b.Run(fmt.Sprintf("order%d_n%d_p%d", tc.order, tc.n, tc.p), func(b *testing.B) {
			b.ReportAllocs()
			var events uint64
			for i := 0; i < b.N; i++ {
				ms := FFIMatricesFromIndex(ix, tc.p, 0)
				events = ms.Interpolation.Events() + ms.InteractionList.Events()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(events), "ns/event")
		})
	}
}
