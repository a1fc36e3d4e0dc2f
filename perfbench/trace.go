package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// the layer's public function. Spans of one operation (a sweep pass, a
// tick, a request) share Op; Parent is the index of the enclosing span
// or -1.
type span struct {
	Name   string `json:"name"`
	Parent int    `json:"parent"`
	Op     int64  `json:"op"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer
// records nothing, so a traced and an untraced pass run the same code
// and differ only in the recorder.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index for end and for children.
func (t *tracer) begin(name string, parent int, op int64) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: op, Start: now, End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// duration returns a finished span's length in nanoseconds, 0 for a
// nil tracer.
func (t *tracer) duration(id int) int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[id].End - t.spans[id].Start
}

// mark returns the number of spans recorded so far, so a caller can
// later analyse only the spans of one pass.
func (t *tracer) mark() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// selfTimes returns, per span name, the summed self time in
// nanoseconds of the spans recorded since mark: a span's duration minus
// the part of it that its children cover. Children that run in
// parallel are merged into one covered interval set, so self times
// never go negative.
func (t *tracer) selfTimes(since int) map[string]int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	children := map[int][]int{}
	for i := since; i < len(t.spans); i++ {
		if p := t.spans[i].Parent; p >= since {
			children[p] = append(children[p], i)
		}
	}
	out := map[string]int64{}
	for i := since; i < len(t.spans); i++ {
		s := t.spans[i]
		var iv [][2]int64
		for _, c := range children[i] {
			iv = append(iv, [2]int64{t.spans[c].Start, t.spans[c].End})
		}
		out[s.Name] += s.End - s.Start - covered(iv, s.Start, s.End)
	}
	return out
}

// covered is the length of the union of intervals, clipped to [lo, hi].
func covered(iv [][2]int64, lo, hi int64) int64 {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var total int64
	cur := lo
	for _, in := range iv {
		s, e := max(in[0], cur), min(in[1], hi)
		if e > s {
			total += e - s
			cur = e
		}
	}
	return total
}

func (t *tracer) writeFile(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	t.mu.Lock()
	data, err := json.Marshal(t.spans)
	t.mu.Unlock()
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// memSampler tracks heap use while a traced run measures. It reads
// runtime/metrics, which does not stop the world.
type memSampler struct {
	stop    chan struct{}
	done    chan struct{}
	peak    uint64
	alloc0  uint64
	cycles0 uint64
}

var memSamples = []metrics.Sample{
	{Name: "/memory/classes/heap/objects:bytes"},
	{Name: "/gc/heap/allocs:bytes"},
	{Name: "/gc/cycles/total:gc-cycles"},
}

func readMem() (heap, alloc, cycles uint64) {
	s := append([]metrics.Sample(nil), memSamples...)
	metrics.Read(s)
	return s[0].Value.Uint64(), s[1].Value.Uint64(), s[2].Value.Uint64()
}

func startMemSampler() *memSampler {
	m := &memSampler{stop: make(chan struct{}), done: make(chan struct{})}
	m.peak, m.alloc0, m.cycles0 = readMem()
	go func() {
		defer close(m.done)
		tick := time.NewTicker(10 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-m.stop:
				return
			case <-tick.C:
				if h, _, _ := readMem(); h > m.peak {
					m.peak = h
				}
			}
		}
	}()
	return m
}

// finish stops the sampler and reports mem.peak_heap_mib, mem.alloc_mib
// and mem.gc_cycles for the sampled interval.
func (m *memSampler) finish(res *result) {
	close(m.stop)
	<-m.done
	h, alloc, cycles := readMem()
	if h > m.peak {
		m.peak = h
	}
	res.set("mem.peak_heap_mib", float64(m.peak)/(1<<20), "MiB")
	res.set("mem.alloc_mib", float64(alloc-m.alloc0)/(1<<20), "MiB")
	res.set("mem.gc_cycles", float64(cycles-m.cycles0), "count")
}
