package commmat

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"sfcacd/internal/acd"
	"sfcacd/internal/oracle"
	"sfcacd/internal/topology"
)

// refMatrix is the brute-force reference: a plain map from packed
// (src, dst) to count.
type refMatrix map[uint64]uint32

func (r refMatrix) add(src, dst int32) {
	r[uint64(uint32(src))<<32|uint64(uint32(dst))]++
}

// randomEvents yields a deterministic event stream over p ranks whose
// deltas mix tight locality with occasional far jumps, including
// dst < src pairs.
func randomEvents(seed int64, p, n int) [][2]int32 {
	rng := rand.New(rand.NewSource(seed))
	events := make([][2]int32, n)
	for i := range events {
		src := int32(rng.Intn(p))
		var dst int32
		switch rng.Intn(10) {
		case 0: // far jump anywhere
			dst = int32(rng.Intn(p))
		case 1: // behind the source
			dst = src - int32(rng.Intn(64))
			if dst < 0 {
				dst = 0
			}
		default: // tight forward locality
			dst = src + int32(rng.Intn(48))
			if dst >= int32(p) {
				dst = int32(p) - 1
			}
		}
		events[i] = [2]int32{src, dst}
	}
	return events
}

// burstyEvents repeats each event of a stream 1 to 8 times back to
// back, the way traversals emit runs of one pair.
func burstyEvents(events [][2]int32) [][2]int32 {
	rng := rand.New(rand.NewSource(int64(len(events))))
	var out [][2]int32
	for _, e := range events {
		for r := rng.Intn(8) + 1; r > 0; r-- {
			out = append(out, e)
		}
	}
	return out
}

// checkAgainstRef verifies the matrix against the brute-force map and
// that Visit yields strictly ascending (src, dst) order.
func checkAgainstRef(t *testing.T, m *Matrix, ref refMatrix) {
	t.Helper()
	var events uint64
	seen := 0
	prev := int64(-1)
	m.Visit(func(src, dst int32, n uint32) {
		key := int64(src)<<32 | int64(dst)
		if key <= prev {
			t.Fatalf("Visit order not ascending: (%d,%d) after %d", src, dst, prev)
		}
		prev = key
		want := ref[uint64(uint32(src))<<32|uint64(uint32(dst))]
		if n != want {
			t.Fatalf("pair (%d,%d): got %d events, want %d", src, dst, n, want)
		}
		seen++
		events += uint64(n)
	})
	if seen != len(ref) {
		t.Fatalf("matrix has %d pairs, reference has %d", seen, len(ref))
	}
	if m.Pairs() != len(ref) || m.Events() != events {
		t.Fatalf("accounting: Pairs=%d Events=%d, want %d/%d", m.Pairs(), m.Events(), len(ref), events)
	}
}

func buildWith(p, workers int, events [][2]int32) *Matrix {
	b := NewBuilder(p, workers)
	for i, e := range events {
		b.Shard(i%workers).Add(e[0], e[1])
	}
	return b.Finalize()
}

// TestBuilderMatchesBruteForce covers both aggregation forms: the
// per-shard dense grid (p <= 512) and the logged, row-folded CSR form
// at several rank counts, up to one far past any grid budget.
func TestBuilderMatchesBruteForce(t *testing.T) {
	cases := []struct {
		name string
		p, n int
	}{
		{"dense", 64, 5000},            // p*p <= denseCells
		{"fullCSR", 600, 20000},        // smallest CSR rank counts
		{"banded", 4096, 40000},        // table12 scale
		{"overflowOnly", 200000, 3000}, // rows far sparser than p
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			events := randomEvents(int64(tc.p), tc.p, tc.n)
			ref := refMatrix{}
			for _, e := range events {
				ref.add(e[0], e[1])
			}
			for _, workers := range []int{1, 3} {
				checkAgainstRef(t, buildWith(tc.p, workers, events), ref)
			}
		})
	}
}

// TestBuilderDrainExact forces a tiny log capacity so CSR-form shards
// drain into runs, merge runs and fold runs with logs at Finalize many
// times over, across the dense/CSR boundary, shard counts with empty
// shards, and an empty stream. The stream repeats pairs back to back,
// so runs and logs share pairs.
func TestBuilderDrainExact(t *testing.T) {
	defer func(c int) { logCap = c }(logCap)
	logCap = 37
	for _, p := range []int{1, 2, 511, 512, 513, 2896, 4096} {
		for _, n := range []int{0, 6000} {
			events := burstyEvents(randomEvents(int64(p)+int64(n), p, n))
			ref := refMatrix{}
			for _, e := range events {
				ref.add(e[0], e[1])
			}
			for _, workers := range []int{1, 2, 3, 16} {
				m := buildWith(p, workers, events)
				if dense := p*p <= denseCells; (m.dense != nil) != dense {
					t.Fatalf("p=%d: dense form = %v, want %v", p, m.dense != nil, dense)
				}
				checkAgainstRef(t, m, ref)
				var want uint64
				for k, c := range ref {
					if k>>32 == uint64(uint32(k)) {
						want += uint64(c)
					}
				}
				if m.diag != want {
					t.Fatalf("p=%d n=%d workers=%d: diagonal %d, want %d", p, n, workers, m.diag, want)
				}
			}
		}
	}
}

// TestBuilderFullRow: a row that touches every dst and then repeats
// them fills the fold's touched list to the brim.
func TestBuilderFullRow(t *testing.T) {
	const p = 513
	var events [][2]int32
	for rep := 0; rep < 2; rep++ {
		for d := int32(0); d < p; d++ {
			events = append(events, [2]int32{7, d})
		}
	}
	ref := refMatrix{}
	for _, e := range events {
		ref.add(e[0], e[1])
	}
	checkAgainstRef(t, buildWith(p, 1, events), ref)
}

// TestBuilderRejectsOutOfRange: a pair outside [0, p) panics with a
// message naming it, in both forms, instead of landing in another
// pair's count; so does any pair fed to a shard after Finalize.
func TestBuilderRejectsOutOfRange(t *testing.T) {
	for _, p := range []int{64, 600, 4096} {
		for _, pair := range [][2]int32{{0, int32(p)}, {int32(p), 0}, {-1, 3}, {3, -1}, {int32(p) - 1, int32(p) + 5}} {
			func() {
				defer func() {
					want := fmt.Sprintf("pair (%d, %d)", pair[0], pair[1])
					if r, _ := recover().(string); !strings.Contains(r, want) {
						t.Errorf("p=%d Add%v: panic %q, want one naming %q", p, pair, r, want)
					}
				}()
				NewBuilder(p, 1).Shard(0).Add(pair[0], pair[1])
			}()
		}
		// A shard fed after Finalize must not write into the matrix's
		// grid or a pooled log.
		b := NewBuilder(p, 1)
		s := b.Shard(0)
		s.Add(1, 2)
		m := b.Finalize()
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("p=%d: Add after Finalize did not panic", p)
				}
			}()
			s.Add(1, 2)
		}()
		if m.Events() != 1 || m.Pairs() != 1 {
			t.Errorf("p=%d: matrix changed after Finalize: %d events, %d pairs", p, m.Events(), m.Pairs())
		}
	}
}

// TestShardAddNMatchesAdds: a weighted AddN records exactly what n
// repeated Adds do, in the dense form and in the logged form with a
// log small enough that single AddN calls straddle drains. Weights
// include 0, which records nothing; an out-of-range pair panics naming
// it whatever the weight.
func TestShardAddNMatchesAdds(t *testing.T) {
	defer func(c int) { logCap = c }(logCap)
	logCap = 7
	for _, p := range []int{64, 512, 600, 4096} {
		events := randomEvents(int64(p)+3, p, 4000)
		rng := rand.New(rand.NewSource(int64(p)))
		weights := make([]uint32, len(events))
		for i := range weights {
			weights[i] = uint32(rng.Intn(17))
		}
		for _, workers := range []int{1, 3} {
			bn, b1 := NewBuilder(p, workers), NewBuilder(p, workers)
			for i, e := range events {
				bn.Shard(i%workers).AddN(e[0], e[1], weights[i])
				for range weights[i] {
					b1.Shard(i%workers).Add(e[0], e[1])
				}
			}
			got, want := bn.Finalize(), b1.Finalize()
			if !oracle.SameMatrix(got, want) || got.diag != want.diag {
				t.Fatalf("p=%d workers=%d: AddN matrix (%d events, %d pairs) != repeated Add (%d, %d)",
					p, workers, got.Events(), got.Pairs(), want.Events(), want.Pairs())
			}
		}
		b := NewBuilder(p, 1)
		b.Shard(0).AddN(1, 2, 0)
		if m := b.Finalize(); m.Events() != 0 || m.Pairs() != 0 {
			t.Fatalf("p=%d: AddN with n = 0 recorded %d events", p, m.Events())
		}
		for _, n := range []uint32{0, 3} {
			func() {
				defer func() {
					want := fmt.Sprintf("pair (%d, %d)", p, 0)
					if r, _ := recover().(string); !strings.Contains(r, want) {
						t.Errorf("p=%d AddN(%d, 0, %d): panic %q, want one naming %q", p, p, n, r, want)
					}
				}()
				NewBuilder(p, 1).Shard(0).AddN(int32(p), 0, n)
			}()
		}
	}
}

// TestCountOverflowPanics feeds weighted runs and near-full dense
// counts at the edge of the uint32 range: reaching MaxUint32 exactly is
// fine, one event past it panics naming the pair.
func TestCountOverflowPanics(t *testing.T) {
	const p = 1024
	run := func(src, dst int32, n uint32) csr {
		return csr{rowSrc: []int32{src}, rowStart: []int32{0, 1}, dsts: []int32{dst}, counts: []uint32{n}}
	}
	expectOverflow := func(name string, f func()) {
		t.Helper()
		defer func() {
			if r, _ := recover().(string); !strings.Contains(r, "pair (3, 7)") || !strings.Contains(r, "overflows uint32") {
				t.Errorf("%s: panic %q, want a uint32 overflow naming pair (3, 7)", name, r)
			}
		}()
		f()
	}

	out, events := fold(p, nil, nil, []csr{run(3, 7, math.MaxUint32-5), run(3, 7, 5)})
	if len(out.dsts) != 1 || out.counts[0] != math.MaxUint32 || events != math.MaxUint32 {
		t.Fatalf("exact fill: got counts %v events %d", out.counts, events)
	}
	expectOverflow("run+run", func() {
		fold(p, nil, nil, []csr{run(3, 7, math.MaxUint32-5), run(3, 7, 6)})
	})
	hist := make([]uint32, p)
	hist[3] = 1
	expectOverflow("run+log", func() {
		fold(p, [][]uint64{{3<<32 | 7}}, [][]uint32{hist}, []csr{run(3, 7, math.MaxUint32)})
	})

	bn := NewBuilder(64, 1)
	bn.Shard(0).cells[3*64+7] = math.MaxUint32 - 5
	bn.Shard(0).AddN(3, 7, 5)
	if c := bn.Shard(0).cells[3*64+7]; c != math.MaxUint32 {
		t.Fatalf("dense AddN exact fill: count %d", c)
	}
	bn.Shard(0).cells[3*64+7] = math.MaxUint32 - 5
	expectOverflow("dense AddN", func() { bn.Shard(0).AddN(3, 7, 6) })

	b := NewBuilder(64, 2)
	b.Shard(0).cells[3*64+7] = math.MaxUint32
	expectOverflow("dense Add", func() { b.Shard(0).Add(3, 7) })
	b.Shard(1).Add(3, 7)
	expectOverflow("dense Finalize", func() { b.Finalize() })
}

// TestDeterministicAcrossWorkers: the finalized matrix is identical no
// matter how the stream is sharded.
func TestDeterministicAcrossWorkers(t *testing.T) {
	const p, n = 4096, 30000
	events := randomEvents(11, p, n)
	base := buildWith(p, 1, events)
	for _, workers := range []int{2, 5, 16} {
		m := buildWith(p, workers, events)
		if m.Pairs() != base.Pairs() || m.Events() != base.Events() {
			t.Fatalf("workers=%d: pairs/events diverged", workers)
		}
		type pair struct {
			src, dst int32
			n        uint32
		}
		var a, b []pair
		base.Visit(func(s, d int32, n uint32) { a = append(a, pair{s, d, n}) })
		m.Visit(func(s, d int32, n uint32) { b = append(b, pair{s, d, n}) })
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("workers=%d: entry %d diverged: %+v vs %+v", workers, i, a[i], b[i])
			}
		}
	}
}

// buildSerial aggregates a visitor-produced event stream into a Matrix
// on the calling goroutine through a one-shard Builder.
func buildSerial(p int, visit func(emit func(src, dst int32))) *Matrix {
	b := NewBuilder(p, 1)
	s := b.Shard(0)
	visit(func(src, dst int32) { s.Add(src, dst) })
	return b.Finalize()
}

// TestBuildSerialMatchesBuilder: a one-shard builder fed from a
// visitor aggregates exactly.
func TestBuildSerialMatchesBuilder(t *testing.T) {
	const p, n = 600, 8000
	events := randomEvents(13, p, n)
	ref := refMatrix{}
	for _, e := range events {
		ref.add(e[0], e[1])
	}
	m := buildSerial(p, func(emit func(src, dst int32)) {
		for _, e := range events {
			emit(e[0], e[1])
		}
	})
	checkAgainstRef(t, m, ref)
}

// TestContractEquivalence: the per-pair reference contraction equals
// per-event accumulation, a one-table fused pass equals the reference
// on both matrix forms, and the Sym weighting counts each pair exactly
// twice.
func TestContractEquivalence(t *testing.T) {
	for _, p := range []int{64, 600, 4096} {
		events := randomEvents(int64(p)+1, p, 20000)
		m := buildWith(p, 2, events)
		topo := topology.NewBus(p)

		var direct acd.Accumulator
		for _, e := range events {
			direct.Add(topo.Distance(int(e[0]), int(e[1])))
		}
		var viaTable, symTable acd.Accumulator
		m.ContractTableMulti([]*topology.DistanceTable{topology.NewDistanceTable(topo)}, []*acd.Accumulator{&viaTable}, 1)
		m.ContractTableMultiSym([]*topology.DistanceTable{topology.NewDistanceTable(topo)}, []*acd.Accumulator{&symTable}, 3)

		if ref := oracle.Contract(m, topo, 1); ref != direct {
			t.Fatalf("p=%d: reference contraction %+v != direct %+v", p, ref, direct)
		}
		if viaTable != direct {
			t.Fatalf("p=%d: one-table fused %+v != direct %+v", p, viaTable, direct)
		}
		want := acd.Accumulator{Sum: 2 * direct.Sum, Count: 2 * direct.Count, Zeros: 2 * direct.Zeros}
		if sym := oracle.Contract(m, topo, 2); sym != want || symTable != want {
			t.Fatalf("p=%d: Sym contraction %+v / fused %+v != doubled %+v", p, sym, symTable, want)
		}
	}
}

// TestConcurrentShards drives all shards from separate goroutines —
// the case the race detector must bless.
func TestConcurrentShards(t *testing.T) {
	const p, workers, perWorker = 4096, 8, 5000
	b := NewBuilder(p, workers)
	ref := refMatrix{}
	streams := make([][][2]int32, workers)
	for w := range streams {
		streams[w] = randomEvents(int64(100+w), p, perWorker)
		for _, e := range streams[w] {
			ref.add(e[0], e[1])
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := b.Shard(w)
			for _, e := range streams[w] {
				s.Add(e[0], e[1])
			}
		}(w)
	}
	wg.Wait()
	checkAgainstRef(t, b.Finalize(), ref)
}

// tableStream yields a canonical (src <= dst) event stream shaped like
// one table12 far-field build at p ranks: sources advance along the
// curve, about 95% of partners sit a few ranks above, and the other 5%
// land anywhere above.
func tableStream(p, n int) [][2]int32 {
	rng := rand.New(rand.NewSource(1))
	events := make([][2]int32, n)
	for i := range events {
		src := int32(i * p / n)
		dst := src + int32(rng.Intn(16))
		if rng.Intn(20) == 0 {
			dst = src + int32(rng.Intn(p-int(src)))
		}
		if dst >= int32(p) {
			dst = int32(p) - 1
		}
		events[i] = [2]int32{src, dst}
	}
	return events
}

var benchPairs int

// BenchmarkBuilderAdd times one Add per event plus Finalize on a
// table12-shaped stream, with one builder and with two builders running
// at once (two sweep cells sharing the machine). ns/event is wall time
// over all events of all builders.
func BenchmarkBuilderAdd(b *testing.B) {
	const p, n = 4096, 300000
	events := tableStream(p, n)
	for _, builders := range []int{1, 2} {
		b.Run(fmt.Sprintf("builders=%d", builders), func(b *testing.B) {
			b.ReportAllocs()
			pairs := make([]int, builders)
			for i := 0; i < b.N; i++ {
				var wg sync.WaitGroup
				for j := range pairs {
					wg.Add(1)
					go func(j int) {
						defer wg.Done()
						bd := NewBuilder(p, 1)
						s := bd.Shard(0)
						for _, e := range events {
							s.Add(e[0], e[1])
						}
						pairs[j] = bd.Finalize().Pairs()
					}(j)
				}
				wg.Wait()
			}
			benchPairs = pairs[0]
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*builders*n), "ns/event")
		})
	}
}
