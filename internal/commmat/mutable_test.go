package commmat

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"sfcacd/internal/acd"
	"sfcacd/internal/oracle"
	"sfcacd/internal/rng"
	"sfcacd/internal/sfc"
	"sfcacd/internal/topology"
)

// randomCanonicalStream draws count (src <= dst) pairs, biased toward
// small deltas like chunk-monotone streams but with a tail that
// exercises the overflow map on banded strides.
func randomCanonicalStream(p, count int, seed uint64) [][2]int32 {
	r := rng.New(seed)
	pairs := make([][2]int32, count)
	for i := range pairs {
		src := int32(r.Intn(p))
		var d int
		if r.Uint32n(16) == 0 {
			d = r.Intn(p) // occasional far pair
		} else {
			d = r.Intn(64)
		}
		dst := src + int32(d)
		if int(dst) >= p {
			dst = int32(p - 1)
		}
		pairs[i] = [2]int32{src, dst}
	}
	return pairs
}

// TestMutableMatchesBuilder pins the differential-oracle property the
// incremental layer rests on: a Mutable fed a stream produces exactly
// the Matrix a Builder produces from the same stream, across the
// dense, full-grid CSR, and banded-with-overflow forms.
func TestMutableMatchesBuilder(t *testing.T) {
	for _, p := range []int{1, 4, 100, 1024, 4096} {
		pairs := randomCanonicalStream(p, 5000, uint64(p))
		m := NewMutable(p)
		b := NewBuilder(p, 1)
		s := b.Shard(0)
		for _, pr := range pairs {
			m.Add(pr[0], pr[1])
			s.Add(pr[0], pr[1])
		}
		want := b.Finalize()
		got := m.Matrix()
		if !oracle.SameMatrix(got, want) {
			t.Fatalf("p=%d: mutable matrix diverged from builder (events %d vs %d, pairs %d vs %d)",
				p, got.Events(), want.Events(), got.Pairs(), want.Pairs())
		}
		if got.Events() != m.Events() || got.Pairs() != m.Pairs() {
			t.Fatalf("p=%d: materialized counts disagree with live counters", p)
		}
	}
}

// TestMutableSubRetractsExactly adds a base stream plus a churn stream,
// retracts the churn in a different order, and requires the result to
// equal a from-scratch build of the base stream alone.
func TestMutableSubRetractsExactly(t *testing.T) {
	for _, p := range []int{16, 1024, 4096} {
		base := randomCanonicalStream(p, 3000, uint64(p)+1)
		churn := randomCanonicalStream(p, 1000, uint64(p)+2)
		m := NewMutable(p)
		for _, pr := range base {
			m.Add(pr[0], pr[1])
		}
		for _, pr := range churn {
			m.Add(pr[0], pr[1])
		}
		// Retract back-to-front to decorrelate from addition order.
		for i := len(churn) - 1; i >= 0; i-- {
			m.Sub(churn[i][0], churn[i][1])
		}
		b := NewBuilder(p, 1)
		s := b.Shard(0)
		for _, pr := range base {
			s.Add(pr[0], pr[1])
		}
		if !oracle.SameMatrix(m.Matrix(), b.Finalize()) {
			t.Fatalf("p=%d: retraction left residue", p)
		}
	}
}

// TestMutableResetAndRefill checks Reset empties completely and the
// matrix is reusable afterwards.
func TestMutableResetAndRefill(t *testing.T) {
	p := 4096 // banded stride: both grid and overflow populated
	m := NewMutable(p)
	pairs := randomCanonicalStream(p, 2000, 7)
	for _, pr := range pairs {
		m.Add(pr[0], pr[1])
	}
	m.Reset()
	if m.Events() != 0 || m.Pairs() != 0 {
		t.Fatalf("after Reset: events=%d pairs=%d", m.Events(), m.Pairs())
	}
	seen := 0
	m.Visit(func(src, dst int32, n uint32) { seen++ })
	if seen != 0 {
		t.Fatalf("after Reset: Visit produced %d pairs", seen)
	}
	for _, pr := range pairs {
		m.Add(pr[0], pr[1])
	}
	b := NewBuilder(p, 1)
	s := b.Shard(0)
	for _, pr := range pairs {
		s.Add(pr[0], pr[1])
	}
	if !oracle.SameMatrix(m.Matrix(), b.Finalize()) {
		t.Fatalf("refill after Reset diverged from builder")
	}
}

// TestMutableContractMatchesMatrix pins the Mutable's in-place
// contraction against the per-pair reference, applied both to the
// Mutable itself and to its materialized Matrix.
func TestMutableContractMatchesMatrix(t *testing.T) {
	p := 1024
	curve, err := sfc.ByName("hilbert")
	if err != nil {
		t.Fatal(err)
	}
	torus := topology.NewTorus(5, curve)
	m := NewMutable(p)
	for _, pr := range randomCanonicalStream(p, 4000, 11) {
		m.Add(pr[0], pr[1])
	}
	want := oracle.Contract(m.Matrix(), torus, 2)
	if got := oracle.Contract(m, torus, 2); got != want {
		t.Fatalf("reference over Visit: got %+v, want %+v", got, want)
	}
	dt := topology.NewDistanceTable(torus)
	var gotT acd.Accumulator
	m.ContractTableMultiSym([]*topology.DistanceTable{dt}, []*acd.Accumulator{&gotT})
	if gotT != want {
		t.Fatalf("ContractTableMultiSym: got %+v, want %+v", gotT, want)
	}
}

// TestMutableCountOverflowPanics: an Add that would pass the uint32
// count range panics naming the pair, for a band-grid pair and for an
// overflow-map pair alike, and leaves the counters untouched.
func TestMutableCountOverflowPanics(t *testing.T) {
	m := NewMutable(4096)
	band, over := [2]int32{3, 7}, [2]int32{3, 4000}
	if m.slot(band[0], band[1]) < 0 || m.slot(over[0], over[1]) >= 0 {
		t.Fatalf("stride %d does not put %v in the band and %v past it", m.stride, band, over)
	}
	m.Add(band[0], band[1])
	m.Add(over[0], over[1])
	m.grid[m.slot(band[0], band[1])] = math.MaxUint32
	m.over[uint64(over[0])<<32|uint64(over[1])] = math.MaxUint32
	for _, pr := range [][2]int32{band, over} {
		func() {
			defer func() {
				want := fmt.Sprintf("pair (%d, %d) overflows uint32", pr[0], pr[1])
				if r, _ := recover().(string); !strings.Contains(r, want) {
					t.Errorf("Add%v: panic %q, want one containing %q", pr, r, want)
				}
			}()
			m.Add(pr[0], pr[1])
		}()
	}
	if m.Events() != 2 || m.Pairs() != 2 {
		t.Fatalf("overflowing Adds changed the counters: %d events, %d pairs", m.Events(), m.Pairs())
	}
}

// TestMutablePanics pins the misuse contracts: retracting an absent
// pair and adding a non-canonical pair must fail loudly, because both
// mean the incremental maintainer's event accounting has diverged.
func TestMutablePanics(t *testing.T) {
	expectPanic := func(name string, f func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s did not panic", name)
			}
		}()
		f()
	}
	m := NewMutable(64)
	m.Add(3, 5)
	expectPanic("Sub of absent band pair", func() { m.Sub(3, 6) })
	expectPanic("non-canonical Add", func() { m.Add(5, 3) })
	expectPanic("out-of-range Add", func() { m.Add(0, 64) })
	big := NewMutable(4096)
	expectPanic("Sub of absent overflow pair", func() { big.Sub(0, 4000) })
}

// TestEqualDetectsDifferences spot-checks the matrix comparison's
// negative cases.
func TestEqualDetectsDifferences(t *testing.T) {
	mk := func(pairs ...[2]int32) *Matrix {
		m := NewMutable(16)
		for _, pr := range pairs {
			m.Add(pr[0], pr[1])
		}
		return m.Matrix()
	}
	a := mk([2]int32{1, 2}, [2]int32{1, 2}, [2]int32{3, 7})
	if !oracle.SameMatrix(a, mk([2]int32{1, 2}, [2]int32{3, 7}, [2]int32{1, 2})) {
		t.Fatalf("order-insensitive streams compared unequal")
	}
	if oracle.SameMatrix(a, mk([2]int32{1, 2}, [2]int32{3, 7})) {
		t.Fatalf("different event counts compared equal")
	}
	if oracle.SameMatrix(a, mk([2]int32{1, 2}, [2]int32{1, 2}, [2]int32{3, 8})) {
		t.Fatalf("different pair sets compared equal")
	}
}
