package experiments

import (
	"context"
	"math"
	"strings"
	"testing"

	"sfcacd/internal/anns"
	"sfcacd/internal/geom"
	"sfcacd/internal/sfc"
)

// testParams is the scaled-down configuration the test suite uses:
// 4,000 particles on 256x256, 256 processors.
var testParams = Params{
	Particles: 4000,
	Order:     8,
	ProcOrder: 4,
	Radius:    1,
	Trials:    1,
	Seed:      7,
}

func TestParamsValidate(t *testing.T) {
	if err := testParams.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := testParams
	bad.Particles = 0
	if bad.Validate() == nil {
		t.Error("0 particles accepted")
	}
	bad = testParams
	bad.Particles = 1 << 30
	if bad.Validate() == nil {
		t.Error("overfull grid accepted")
	}
	bad = testParams
	bad.Trials = 0
	if bad.Validate() == nil {
		t.Error("0 trials accepted")
	}
	bad = testParams
	bad.Radius = -1
	if bad.Validate() == nil {
		t.Error("negative radius accepted")
	}
	bad = testParams
	bad.Radius = 2*int(geom.Side(bad.Order)) + 1
	if bad.Validate() == nil {
		t.Error("radius past twice the grid side accepted")
	}
	ok := testParams
	ok.Radius = 2 * int(geom.Side(ok.Order))
	if err := ok.Validate(); err != nil {
		t.Errorf("radius of twice the grid side rejected: %v", err)
	}
	bad = testParams
	bad.Radius = 1 << 40
	if bad.Validate() == nil {
		t.Error("radius 2^40 accepted")
	}
	bad = testParams
	bad.Order = 30
	if bad.Validate() == nil {
		t.Error("huge order accepted")
	}
	bad = testParams
	bad.ProcOrder = bad.Order + 1
	if bad.Validate() == nil {
		t.Error("processor order above the spatial order accepted")
	}
	ok = testParams
	ok.ProcOrder = ok.Order
	if err := ok.Validate(); err != nil {
		t.Errorf("processor order equal to the spatial order rejected: %v", err)
	}
	for _, engine := range []string{"", "tree", "keys", "auto"} {
		ok := testParams
		ok.NFIEngine = engine
		if err := ok.Validate(); err != nil {
			t.Errorf("legacy NFIEngine %q rejected: %v", engine, err)
		}
	}
	bad = testParams
	bad.NFIEngine = "quadtree"
	if bad.Validate() == nil {
		t.Error("unknown NFIEngine accepted")
	}
}

func TestParamsScale(t *testing.T) {
	p := Table12Paper.Scale(2)
	if p.Particles != 250000/16 || p.Order != 8 || p.ProcOrder != 6 {
		t.Fatalf("scaled params %+v", p)
	}
	if err := p.Validate(); err != nil {
		t.Fatal(err)
	}
	// Scaling never drives parameters below their floors.
	tiny := Params{Particles: 8, Order: 2, ProcOrder: 1, Trials: 1}.Scale(10)
	if tiny.Particles < 1 || tiny.Order < 2 || tiny.ProcOrder < 1 {
		t.Fatalf("over-scaled params %+v", tiny)
	}
}

func TestParamsP(t *testing.T) {
	if testParams.P() != 256 {
		t.Fatalf("P = %d", testParams.P())
	}
}

func TestRunTable12ShapeAndDeterminism(t *testing.T) {
	res, err := RunTable12(context.Background(), testParams)
	if err != nil {
		t.Fatal(err)
	}
	if len(res) != 3 {
		t.Fatalf("%d distributions, want 3", len(res))
	}
	for _, r := range res {
		if len(r.NFI) != 4 || len(r.FFI) != 4 || len(r.Curves) != 4 {
			t.Fatalf("%s: bad shape", r.Distribution)
		}
		for i := range r.NFI {
			for j := range r.NFI[i] {
				if r.NFI[i][j] <= 0 || r.FFI[i][j] <= 0 {
					t.Fatalf("%s: nonpositive ACD at (%d,%d)", r.Distribution, i, j)
				}
			}
		}
	}
	// Determinism.
	res2, err := RunTable12(context.Background(), testParams)
	if err != nil {
		t.Fatal(err)
	}
	for d := range res {
		for i := range res[d].NFI {
			for j := range res[d].NFI[i] {
				if res[d].NFI[i][j] != res2[d].NFI[i][j] || res[d].FFI[i][j] != res2[d].FFI[i][j] {
					t.Fatal("RunTable12 not deterministic")
				}
			}
		}
	}
}

func TestTable12PaperOrdering(t *testing.T) {
	// The paper's headline conclusions, checked on the uniform
	// distribution at test scale:
	//  - NFI: Hilbert processor order dominates row-major processor
	//    order for every particle order (Table I row comparison).
	//  - The diagonal (same curve both roles) satisfies
	//    hilbert < rowmajor by a wide margin.
	res, err := RunTable12(context.Background(), testParams)
	if err != nil {
		t.Fatal(err)
	}
	uniform := res[0]
	if uniform.Distribution != "uniform" {
		t.Fatalf("first distribution %q", uniform.Distribution)
	}
	const hilbert, zcurve, gray, rowmajor = 0, 1, 2, 3
	for pc := 0; pc < 4; pc++ {
		if uniform.NFI[hilbert][pc] >= uniform.NFI[rowmajor][pc] {
			t.Errorf("NFI: hilbert proc order (%f) >= rowmajor proc order (%f) for particle curve %d",
				uniform.NFI[hilbert][pc], uniform.NFI[rowmajor][pc], pc)
		}
	}
	if uniform.NFI[hilbert][hilbert]*2 >= uniform.NFI[rowmajor][rowmajor] {
		t.Errorf("NFI diagonal: hilbert %f not well below rowmajor %f",
			uniform.NFI[hilbert][hilbert], uniform.NFI[rowmajor][rowmajor])
	}
	if uniform.FFI[hilbert][hilbert] >= uniform.FFI[rowmajor][rowmajor] {
		t.Errorf("FFI diagonal: hilbert %f >= rowmajor %f",
			uniform.FFI[hilbert][hilbert], uniform.FFI[rowmajor][rowmajor])
	}
	// Gray never beats both Hilbert and Z on the diagonal (the paper's
	// {Hilbert ~ Z} < Gray ordering).
	if uniform.NFI[gray][gray] < uniform.NFI[hilbert][hilbert] &&
		uniform.NFI[gray][gray] < uniform.NFI[zcurve][zcurve] {
		t.Errorf("NFI: gray diagonal unexpectedly best")
	}
}

func TestTable12NormalWorseThanUniformForRecursiveNFI(t *testing.T) {
	// §VI-A: recursive curves do much better on uniform than on the
	// centrally clustered normal input (paper reports ~2x).
	res, err := RunTable12(context.Background(), testParams)
	if err != nil {
		t.Fatal(err)
	}
	uniform, normal := res[0], res[1]
	if normal.Distribution != "normal" {
		t.Fatalf("second distribution %q", normal.Distribution)
	}
	for _, idx := range []int{0, 1, 2} { // hilbert, z, gray diagonals
		if normal.NFI[idx][idx] <= uniform.NFI[idx][idx] {
			t.Errorf("curve %d: normal NFI %f <= uniform %f",
				idx, normal.NFI[idx][idx], uniform.NFI[idx][idx])
		}
	}
}

func TestTable12Matrices(t *testing.T) {
	res, err := RunTable12(context.Background(), testParams)
	if err != nil {
		t.Fatal(err)
	}
	nfi, ffi := res[0].Matrices()
	var b strings.Builder
	if err := nfi.Render(&b); err != nil {
		t.Fatal(err)
	}
	if err := ffi.Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "Table I") || !strings.Contains(b.String(), "Table II") {
		t.Error("matrix titles missing")
	}
}

func TestRunFig5MatchesANNSPackage(t *testing.T) {
	res, err := RunFig5(context.Background(), 1, 5, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Orders) != 5 || len(res.Curves) != 4 {
		t.Fatalf("bad shape %+v", res)
	}
	for c, curve := range sfc.All() {
		for i, o := range res.Orders {
			want := anns.Stretch(curve, o, anns.Options{Radius: 1}).Mean
			if math.Abs(res.ANNS[c][i]-want) > 1e-12 {
				t.Fatalf("%s order %d: %f != %f", curve.Name(), o, res.ANNS[c][i], want)
			}
		}
	}
	// Stretch grows with resolution for every curve.
	for c := range res.Curves {
		for i := 1; i < len(res.Orders); i++ {
			if res.ANNS[c][i] <= res.ANNS[c][i-1] {
				t.Errorf("%s: stretch not increasing at order %d", res.Curves[c], res.Orders[i])
			}
		}
	}
	if _, err := RunFig5(context.Background(), 3, 2, 1, 0); err == nil {
		t.Error("bad order range accepted")
	}
	if _, err := RunFig5(context.Background(), 1, 3, 0, 0); err == nil {
		t.Error("bad radius accepted")
	}
}

func TestRunFig5SeriesTable(t *testing.T) {
	res, err := RunFig5(context.Background(), 1, 4, 6, 0)
	if err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := res.SeriesTable().Render(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "radius 6") {
		t.Error("series table missing radius")
	}
}

func TestRunFig6PaperTrends(t *testing.T) {
	p := testParams
	p.Radius = 2
	res, err := RunFig6(context.Background(), p)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.NFI) != 6 || len(res.NFI[0]) != 4 {
		t.Fatalf("bad shape")
	}
	idx := map[string]int{}
	for i, name := range res.Topologies {
		idx[name] = i
	}
	const hilbert = 0
	// Bus and ring are far worse than every other topology for both
	// interaction families (the paper omitted them from the plot for
	// this reason). The paper's hypercube-beats-mesh and
	// quadtree-beats-all-FFI findings are scale-dependent crossovers —
	// they need the paper's 65,536-processor networks, where the grid
	// diameter (510 hops) makes long-range tails dominate — so they are
	// verified by the paper-scale run recorded in EXPERIMENTS.md, not
	// at unit-test scale.
	for _, slow := range []string{"bus", "ring"} {
		for _, fast := range []string{"mesh", "torus", "quadtree", "hypercube"} {
			if res.NFI[idx[slow]][hilbert] <= res.NFI[idx[fast]][hilbert] {
				t.Errorf("NFI: %s (%f) <= %s (%f)", slow, res.NFI[idx[slow]][hilbert],
					fast, res.NFI[idx[fast]][hilbert])
			}
			if res.FFI[idx[slow]][hilbert] <= res.FFI[idx[fast]][hilbert] {
				t.Errorf("FFI: %s (%f) <= %s (%f)", slow, res.FFI[idx[slow]][hilbert],
					fast, res.FFI[idx[fast]][hilbert])
			}
		}
	}
	// Hilbert is the best curve on the torus for both families.
	for c := 1; c < 4; c++ {
		if res.NFI[idx["torus"]][hilbert] > res.NFI[idx["torus"]][c] {
			t.Errorf("NFI torus: hilbert (%f) worse than curve %d (%f)",
				res.NFI[idx["torus"]][hilbert], c, res.NFI[idx["torus"]][c])
		}
	}
	var b strings.Builder
	nfi, ffi := res.Matrices()
	if err := nfi.Render(&b); err != nil {
		t.Fatal(err)
	}
	if err := ffi.Render(&b); err != nil {
		t.Fatal(err)
	}
}

func TestRunFig7Trends(t *testing.T) {
	p := testParams
	res, err := RunFig7(context.Background(), p, []uint{2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.ProcCounts) != 3 || res.ProcCounts[0] != 16 || res.ProcCounts[2] != 256 {
		t.Fatalf("proc counts %v", res.ProcCounts)
	}
	const hilbert, rowmajor = 0, 3
	for i := range res.ProcCounts {
		if res.NFI[hilbert][i] >= res.NFI[rowmajor][i] {
			t.Errorf("NFI p=%d: hilbert %f >= rowmajor %f",
				res.ProcCounts[i], res.NFI[hilbert][i], res.NFI[rowmajor][i])
		}
		if res.FFI[hilbert][i] >= res.FFI[rowmajor][i] {
			t.Errorf("FFI p=%d: hilbert %f >= rowmajor %f",
				res.ProcCounts[i], res.FFI[hilbert][i], res.FFI[rowmajor][i])
		}
	}
	// More processors -> more remote communication -> higher ACD.
	for c := range res.Curves {
		for i := 1; i < len(res.ProcCounts); i++ {
			if res.NFI[c][i] <= res.NFI[c][i-1] {
				t.Errorf("%s: NFI not increasing in p at %d", res.Curves[c], res.ProcCounts[i])
			}
		}
	}
	if _, err := RunFig7(context.Background(), p, nil); err == nil {
		t.Error("empty sweep accepted")
	}
	var b strings.Builder
	nfi, ffi := res.SeriesTables()
	if err := nfi.Render(&b); err != nil {
		t.Fatal(err)
	}
	if err := ffi.Render(&b); err != nil {
		t.Fatal(err)
	}
}

func TestRunRadiusSweepOrderingInvariant(t *testing.T) {
	res, err := RunRadiusSweep(context.Background(), testParams, []int{1, 2, 4})
	if err != nil {
		t.Fatal(err)
	}
	// §VI-C: radius changes never reorder the curves. Gray and Z are
	// "approximately equivalent" in the paper and may swap within
	// noise, so the invariant is checked on the significant ordering:
	// Hilbert stays best and row-major stays worst at every radius.
	const hilbert, rowmajor = 0, 3
	for i := range res.Radii {
		for c := 1; c < 4; c++ {
			if res.NFI[hilbert][i] > res.NFI[c][i] {
				t.Errorf("radius %d: hilbert (%f) not best (curve %d at %f)",
					res.Radii[i], res.NFI[hilbert][i], c, res.NFI[c][i])
			}
		}
		for c := 0; c < 3; c++ {
			if res.NFI[rowmajor][i] < res.NFI[c][i] {
				t.Errorf("radius %d: rowmajor (%f) not worst (curve %d at %f)",
					res.Radii[i], res.NFI[rowmajor][i], c, res.NFI[c][i])
			}
		}
	}
	// ACD grows with radius for each curve.
	for c := range res.Curves {
		for i := 1; i < len(res.Radii); i++ {
			if res.NFI[c][i] <= res.NFI[c][i-1] {
				t.Errorf("%s: ACD not growing with radius", res.Curves[c])
			}
		}
	}
	if _, err := RunRadiusSweep(context.Background(), testParams, nil); err == nil {
		t.Error("empty radius sweep accepted")
	}
	var b strings.Builder
	if err := res.SeriesTable().Render(&b); err != nil {
		t.Fatal(err)
	}
}

func TestRunSizeSweep(t *testing.T) {
	res, err := RunSizeSweep(context.Background(), testParams, []int{1000, 4000})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Sizes) != 2 {
		t.Fatalf("sizes %v", res.Sizes)
	}
	const hilbert, rowmajor = 0, 3
	for i := range res.Sizes {
		if res.NFI[hilbert][i] >= res.NFI[rowmajor][i] {
			t.Errorf("n=%d: hilbert %f >= rowmajor %f", res.Sizes[i],
				res.NFI[hilbert][i], res.NFI[rowmajor][i])
		}
	}
	if _, err := RunSizeSweep(context.Background(), testParams, nil); err == nil {
		t.Error("empty size sweep accepted")
	}
	var b strings.Builder
	nfi, ffi := res.SeriesTables()
	if err := nfi.Render(&b); err != nil {
		t.Fatal(err)
	}
	if err := ffi.Render(&b); err != nil {
		t.Fatal(err)
	}
}

func TestRunMeshTorusWrapLinkUtility(t *testing.T) {
	res, err := RunMeshTorus(context.Background(), testParams)
	if err != nil {
		t.Fatal(err)
	}
	const hilbert, rowmajor = 0, 3
	// Torus never loses to the mesh (it has strictly more links).
	for c := range res.Curves {
		if res.TorusNFI[c] > res.MeshNFI[c]+1e-9 {
			t.Errorf("%s: torus NFI %f > mesh %f", res.Curves[c], res.TorusNFI[c], res.MeshNFI[c])
		}
	}
	// §VI-B: row-major benefits from wrap links much more than the
	// recursive curves do (relative mesh/torus gap).
	hilbertGap := res.MeshFFI[hilbert] / res.TorusFFI[hilbert]
	rowmajorGap := res.MeshFFI[rowmajor] / res.TorusFFI[rowmajor]
	if rowmajorGap <= hilbertGap {
		t.Errorf("FFI wrap-link gap: rowmajor %f <= hilbert %f", rowmajorGap, hilbertGap)
	}
	var b strings.Builder
	if err := res.Matrix().Render(&b); err != nil {
		t.Fatal(err)
	}
}

func TestRunPrimitives(t *testing.T) {
	res := RunPrimitives(3, 0)
	if len(res.Patterns) != 5 || len(res.Curves) != 4 {
		t.Fatalf("bad shape")
	}
	// Ring exchange: hilbert placement is optimal (all unit hops).
	ringRow := -1
	for i, p := range res.Patterns {
		if p == "ring" {
			ringRow = i
		}
	}
	if ringRow == -1 {
		t.Fatal("no ring pattern")
	}
	const hilbert, rowmajor = 0, 3
	if res.Mesh[ringRow][hilbert] >= res.Mesh[ringRow][rowmajor] {
		t.Errorf("ring on mesh: hilbert %f >= rowmajor %f",
			res.Mesh[ringRow][hilbert], res.Mesh[ringRow][rowmajor])
	}
	// Deterministic.
	res2 := RunPrimitives(3, 0)
	for i := range res.Mesh {
		for j := range res.Mesh[i] {
			if res.Mesh[i][j] != res2.Mesh[i][j] || res.Torus[i][j] != res2.Torus[i][j] {
				t.Fatal("RunPrimitives not deterministic")
			}
		}
	}
	var b strings.Builder
	mesh, torus := res.Matrices()
	if err := mesh.Render(&b); err != nil {
		t.Fatal(err)
	}
	if err := torus.Render(&b); err != nil {
		t.Fatal(err)
	}
}

func TestRunContention(t *testing.T) {
	res, err := RunContention(context.Background(), testParams)
	if err != nil {
		t.Fatal(err)
	}
	const hilbert, rowmajor = 0, 3
	if res.MeshACD[hilbert] >= res.MeshACD[rowmajor] {
		t.Errorf("contention mesh ACD: hilbert %f >= rowmajor %f",
			res.MeshACD[hilbert], res.MeshACD[rowmajor])
	}
	if res.MeshMaxLoad[hilbert] >= res.MeshMaxLoad[rowmajor] {
		t.Errorf("contention mesh max load: hilbert %f >= rowmajor %f",
			res.MeshMaxLoad[hilbert], res.MeshMaxLoad[rowmajor])
	}
	for c := range res.Curves {
		if res.MeshMaxLoad[c] < res.MeshMeanLoad[c] {
			t.Errorf("%s: max load below mean load", res.Curves[c])
		}
	}
	var b strings.Builder
	if err := res.Matrix().Render(&b); err != nil {
		t.Fatal(err)
	}
}
