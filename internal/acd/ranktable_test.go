package acd

import (
	"sync"
	"testing"

	"sfcacd/internal/dist"
	"sfcacd/internal/geom"
	"sfcacd/internal/obs"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
)

// TestRankTableLazyBuild pins the lazy protocol of the cell->rank
// lookup behind RankAt, the key-space index: Assign leaves it unbuilt,
// the first RankAt builds it, and Release retires the assignment
// (every cell reads empty, no rebuild).
func TestRankTableLazyBuild(t *testing.T) {
	const order, n, p = 5, 100, 8
	pts, err := dist.SampleUnique(dist.Uniform, rng.New(5), order, n)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Assign(pts, sfc.Morton, order, p)
	if err != nil {
		t.Fatal(err)
	}
	if a.keyIx.Load() != nil {
		t.Fatal("Assign built the key index eagerly")
	}
	if got := a.RankAt(a.Particles[0]); got != a.Ranks[0] {
		t.Fatalf("first RankAt = %d, want %d", got, a.Ranks[0])
	}
	ix := a.KeyIndex()
	if ix == nil {
		t.Fatal("RankAt did not build the key index")
	}
	if a.KeyIndex() != ix {
		t.Fatal("KeyIndex rebuilt a live index")
	}
	a.Release()
	if got := a.RankAt(a.Particles[0]); got != -1 {
		t.Fatalf("RankAt after Release = %d, want -1", got)
	}
	if a.KeyIndex() != nil {
		t.Fatal("KeyIndex rebuilt after Release")
	}
	a.Release() // idempotent
}

// TestRankAtConcurrentFirstUse has several goroutines race to the
// first RankAt of a fresh assignment: they must all share one index
// build and answer correctly (run under -race in CI).
func TestRankAtConcurrentFirstUse(t *testing.T) {
	const order, n, p = 6, 500, 16
	pts, err := dist.SampleUnique(dist.Uniform, rng.New(9), order, n)
	if err != nil {
		t.Fatal(err)
	}
	a, err := Assign(pts, sfc.Hilbert, order, p)
	if err != nil {
		t.Fatal(err)
	}
	builds := obs.GetCounter("keynav.builds")
	before := builds.Value()
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := w; i < a.N(); i += 4 {
				if got := a.RankAt(a.Particles[i]); got != a.Ranks[i] {
					t.Errorf("RankAt(%v) = %d, want %d", a.Particles[i], got, a.Ranks[i])
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if got := builds.Value() - before; got != 1 {
		t.Fatalf("%d index builds, want 1", got)
	}
}

// TestFromOwnersDuplicateCells pins duplicate detection by sorted cell
// ids: duplicates far apart in the input are found, the error names
// the cell, and distinct cells at the grid corners are accepted.
func TestFromOwnersDuplicateCells(t *testing.T) {
	pts := []geom.Point{geom.Pt(1, 1), geom.Pt(2, 2), geom.Pt(15, 15), geom.Pt(0, 0), geom.Pt(2, 2)}
	_, err := FromOwners(pts, []int32{0, 1, 0, 1, 0}, 4, 2)
	if err == nil {
		t.Fatal("FromOwners accepted a duplicate cell")
	}
	if want := "acd: duplicate particle cell " + geom.Pt(2, 2).String(); err.Error() != want {
		t.Fatalf("error %q, want %q", err, want)
	}
	a, err := FromOwners(pts[:4], []int32{0, 1, 0, 1}, 4, 2)
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range pts[:4] {
		if got := a.RankAt(p); got != a.Ranks[i] {
			t.Fatalf("RankAt(%v) = %d, want %d", p, got, a.Ranks[i])
		}
	}
}

// BenchmarkRankAt measures the per-probe cost of RankAt's key search.
// The probe pattern matches a near-field inner loop: a particle's
// immediate neighbor cell.
func BenchmarkRankAt(b *testing.B) {
	const order, n, p = 8, 15625, 64
	pts, err := dist.SampleUnique(dist.Uniform, rng.New(1), order, n)
	if err != nil {
		b.Fatal(err)
	}
	a, err := Assign(pts, sfc.Hilbert, order, p)
	if err != nil {
		b.Fatal(err)
	}
	a.RankAt(pts[0]) // build the index outside the loop
	b.ResetTimer()
	hits := 0
	for i := 0; i < b.N; i++ {
		q := a.Particles[i%n]
		if a.RankAt(geom.Pt(q.X^1, q.Y)) >= 0 {
			hits++
		}
	}
	_ = hits
}

// BenchmarkAssign isolates construction cost now that the index is
// lazy: the "untouched" case never probes, the "probed" case pays one
// index build.
func BenchmarkAssign(b *testing.B) {
	const order, n, p = 8, 15625, 64
	pts, err := dist.SampleUnique(dist.Uniform, rng.New(1), order, n)
	if err != nil {
		b.Fatal(err)
	}
	for _, probe := range []bool{false, true} {
		name := "untouched"
		if probe {
			name = "probed"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				a, err := Assign(pts, sfc.Hilbert, order, p)
				if err != nil {
					b.Fatal(err)
				}
				if probe {
					a.RankAt(pts[0])
				}
				a.Release()
			}
		})
	}
}
