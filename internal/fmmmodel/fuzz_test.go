package fmmmodel

import (
	"testing"

	"sfcacd/internal/acd"
	"sfcacd/internal/geom"
	"sfcacd/internal/oracle"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

// FuzzFFICollapse drives the far-field path — weighted, collapsed
// enumeration of single-representative child groups, AddN aggregation
// and the fused contraction — with fuzzer-chosen orders (1-6), particle
// sets, rank counts (p = 4^k <= 64), curves and ownerships, and checks
// every communication type's accumulator against the oracle's
// per-event definition exactly, on a torus and a mesh at one and three
// workers.
//
// raw holds three bytes per particle: x and y (reduced modulo the grid
// side; repeated cells are dropped) and an owner byte, which sets the
// rank (modulo p) when mode selects explicit owners instead of the
// curve partition. The low two mode bits pick the curve.
func FuzzFFICollapse(f *testing.F) {
	f.Add(uint8(2), uint8(1), uint8(3), []byte{0, 0, 0, 1, 0, 1, 2, 0, 2, 3, 3, 3, 7, 1, 0, 6, 6, 1})
	f.Add(uint8(0), uint8(0), uint8(1), []byte{0, 0, 0, 1, 1, 0})
	f.Add(uint8(5), uint8(3), uint8(6), []byte{9, 40, 200, 10, 41, 17, 11, 40, 3, 63, 0, 255, 62, 1, 4, 30, 30, 30, 31, 30, 30, 31, 31, 2})
	curves := []sfc.Curve{sfc.RowMajor, sfc.Morton, sfc.Gray, sfc.Hilbert}
	f.Fuzz(func(t *testing.T, order, procOrder, mode uint8, raw []byte) {
		o := uint(order%6) + 1
		k := uint(procOrder) % (min(o, 3) + 1)
		p := 1 << (2 * k)
		side := geom.Side(o)
		seen := map[geom.Point]bool{}
		var pts []geom.Point
		var ranks []int32
		for i := 0; i+2 < len(raw) && len(pts) < 512; i += 3 {
			pt := geom.Pt(uint32(raw[i])%side, uint32(raw[i+1])%side)
			if seen[pt] {
				continue
			}
			seen[pt] = true
			pts = append(pts, pt)
			ranks = append(ranks, int32(int(raw[i+2])%p))
		}
		if len(pts) == 0 {
			return
		}
		curve := curves[mode%4]
		var a *acd.Assignment
		var err error
		if mode&4 != 0 {
			a, err = acd.FromOwners(pts, ranks, o, p)
		} else {
			a, err = acd.Assign(pts, curve, o, p)
		}
		if err != nil {
			t.Fatal(err)
		}
		topos := []topology.Topology{topology.NewTorus(k, curve), topology.NewMesh(k, curve)}
		want := make([]FFIResult, len(topos))
		for i, topo := range topos {
			want[i] = FFIResult(oracle.FFI(a, topo))
		}
		for _, w := range []int{1, 3} {
			got := FFIMulti(a, topos, FFIOptions{Workers: w})
			for i, topo := range topos {
				if got[i] != want[i] {
					t.Fatalf("order %d p=%d %s owners=%v workers=%d %s: FFI %+v, oracle %+v",
						o, p, curve.Name(), mode&4 != 0, w, topo.Name(), got[i], want[i])
				}
			}
		}
	})
}
