package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"time"

	"sfcacd/internal/experiments"
	"sfcacd/internal/obs"
	"sfcacd/internal/rng"
	"sfcacd/internal/serve"
)

const (
	// serveRate is the open loop's mean arrival rate. With one request
	// in newKeyEvery computing, the server's two compute workers are
	// busy about a sixth of the time on the benchmark box. At half busy
	// the queueing tail grew tenfold whenever the host stole CPU time
	// from the VM, so the share stays low enough to keep queueing
	// measurable but bounded.
	serveRate = 400.0
	// newKeyEvery spaces the requests for a key never asked before:
	// exactly one per block of this many, at a seeded position in the
	// block, with the experiments taken in turn. Fixing the share (a
	// coin per request would vary it by a few percent from seed to
	// seed) keeps the compute load, and so the queueing tail, the same
	// for every seed. The other requests repeat a known key, picked
	// Zipf-style by recency, so the mix is mostly cache hits with
	// coalesced joins on keys whose computation is still running.
	newKeyEvery = 20
	// warmKeys are computed during setup, so the first requests can hit.
	warmKeys = 16
	// maxInflight bounds concurrently outstanding requests; a request
	// due beyond it is refused by the generator and counts as failed.
	maxInflight = 256
	// minRequests is the least number of requests a run sends, so the
	// 99th percentile has ten samples beyond it.
	minRequests = 1000
	// computeSamples is how many miss keys a traced run recomputes
	// through a direct registry Run for serve.compute_ms.
	computeSamples = 12
)

// serveExperiments are the small-scale requests of the mix; each body
// is merged over the experiment's scaled preset, and Seed is added per
// key.
var serveExperiments = []struct {
	name string
	body experiments.Params
}{
	{"table12", experiments.Params{Particles: 1000, Order: 7, ProcOrder: 3, Radius: 1, Trials: 1}},
	{"fig6", experiments.Params{Particles: 3000, Order: 7, ProcOrder: 3, Radius: 2, Trials: 1}},
	{"radius", experiments.Params{Particles: 1000, Order: 7, ProcOrder: 3, Radius: 1, Trials: 1}},
}

// serveKey is one distinct request: an experiment at one seed.
type serveKey struct {
	exp  int
	seed uint64
	body []byte
}

func (k serveKey) path() string { return "/v1/experiments/" + serveExperiments[k.exp].name }

// params is what the server computes for the key: the scaled preset
// with the body merged over it and one worker per computation.
func (k serveKey) params() (experiments.Spec, experiments.Params) {
	spec, _ := experiments.Lookup(serveExperiments[k.exp].name)
	p := spec.Paper.Scale(2)
	b := serveExperiments[k.exp].body
	p.Particles, p.Order, p.ProcOrder, p.Radius, p.Trials, p.Seed = b.Particles, b.Order, b.ProcOrder, b.Radius, b.Trials, k.seed
	p.Workers = 1
	return spec, p
}

// scheduled is one request of the open loop: due is its send time
// after the start of the load.
type scheduled struct {
	due time.Duration
	key int
}

// serveLoad is the serve-mixed input: an in-process server with its
// warm keys computed, and the seeded request schedule.
type serveLoad struct {
	h     http.Handler
	keys  []serveKey
	sched []scheduled
	// missBody holds, per key, the bodies of its misses; every hit and
	// coalesced join must repeat one of them byte for byte.
	missBody map[int][][]byte
}

func newKey(r *rng.Rand, exp int) serveKey {
	k := serveKey{exp: exp, seed: r.Uint64() >> 1}
	b := serveExperiments[exp].body
	b.Seed = k.seed
	k.body, _ = json.Marshal(b) // Params always marshals
	return k
}

func newServeLoad(seed uint64, seconds float64) (*serveLoad, error) {
	r := rng.New(seed ^ 0x5e7e)
	l := &serveLoad{h: serve.NewHandler(serve.New(serve.Options{})), missBody: map[int][][]byte{}}
	for i := 0; i < warmKeys; i++ {
		l.keys = append(l.keys, newKey(r, i%len(serveExperiments)))
	}
	var at float64
	var newAt int
	for i := 0; ; i++ {
		at += r.ExpFloat64() / serveRate
		if at >= seconds && i >= minRequests {
			break
		}
		if i%newKeyEvery == 0 {
			newAt = i + r.Intn(newKeyEvery)
		}
		key := 0
		if i == newAt {
			l.keys = append(l.keys, newKey(r, len(l.keys)%len(serveExperiments)))
			key = len(l.keys) - 1
		} else {
			// Recency rank k in [1, K] with P(rank <= k) = ln(k+1)/ln(K+1):
			// Zipf-like with exponent 1, newest keys most popular.
			k := int(math.Exp(r.Float64() * math.Log(float64(len(l.keys)+1))))
			key = len(l.keys) - max(1, min(k, len(l.keys)))
		}
		l.sched = append(l.sched, scheduled{due: time.Duration(at * float64(time.Second)), key: key})
	}
	for i := 0; i < warmKeys; i++ {
		rec := l.do(i)
		if rec.Code != http.StatusOK || rec.Header().Get("X-Cache") != "miss" {
			return nil, fmt.Errorf("warm-up request %d: status %d, X-Cache %q", i, rec.Code, rec.Header().Get("X-Cache"))
		}
		l.missBody[i] = append(l.missBody[i], rec.Body.Bytes())
	}
	return l, nil
}

func (l *serveLoad) do(key int) *httptest.ResponseRecorder {
	k := l.keys[key]
	rec := httptest.NewRecorder()
	l.h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, k.path(), bytes.NewReader(k.body)))
	return rec
}

// reqOut is one request's outcome.
type reqOut struct {
	late, lat time.Duration
	status    int
	cache     string
	body      []byte
	traced    bool
}

// run drives the schedule as an open loop. One generator goroutine
// sleeps until each request is due and hands it to a goroutine of its
// own, as net/http serves each connection; latency runs from the due
// time, so a stalled generator or server delays every later request's
// clock too. Requests alternate traced and untraced when t is non-nil.
// It also returns the most requests that were outstanding at once.
func (l *serveLoad) run(t *tracer) ([]reqOut, int64) {
	outs := make([]reqOut, len(l.sched))
	var wg sync.WaitGroup
	var inflight atomic.Int64
	var peak int64
	start := time.Now()
	for i, rq := range l.sched {
		due := start.Add(rq.due)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		outs[i].late = time.Since(due)
		if inflight.Load() >= maxInflight {
			outs[i].status = http.StatusTooManyRequests
			continue
		}
		peak = max(peak, inflight.Add(1))
		wg.Add(1)
		go func(i int, key int, due time.Time) {
			defer wg.Done()
			defer inflight.Add(-1)
			var tt *tracer
			if i%2 == 1 {
				tt = t
			}
			root := tt.begin("loadgen.request", -1, int64(i))
			id := tt.begin("serve.handler", root, int64(i))
			rec := l.do(key)
			tt.end(id)
			tt.end(root)
			outs[i].lat = time.Since(due)
			outs[i].status = rec.Code
			outs[i].cache = rec.Header().Get("X-Cache")
			outs[i].body = rec.Body.Bytes()
			outs[i].traced = tt != nil
		}(i, rq.key, due)
	}
	wg.Wait()
	return outs, peak
}

func runServeMixed(cfg config) (*result, error) {
	// The schedule spans the whole run, so its length is part of the
	// input the seed generates.
	l, setup, err := timeSetup(func() (*serveLoad, error) { return newServeLoad(cfg.seed, cfg.seconds) })
	if err != nil {
		return nil, err
	}
	res := &result{}
	settle()
	var mem *memSampler
	if cfg.trace {
		res.spans = newTracer()
		mem = startMemSampler()
	}
	snap0 := l.metrics()
	before := counterSet(exactCounters)
	outs, peak := l.run(res.spans)
	counts := counterDelta(exactCounters, before)
	snap1 := l.metrics()

	// Record every miss body first: a hit can complete before the miss
	// that produced it is collected.
	for i, o := range outs {
		if o.status == http.StatusOK && o.cache == "miss" {
			k := l.sched[i].key
			l.missBody[k] = append(l.missBody[k], o.body)
		}
	}
	var all, hits, coal, misses, late []float64
	var tracedHits, plainHits []float64
	rejected := 0
	for i, o := range outs {
		res.ops++
		late = append(late, ms(o.late))
		ok := o.status == http.StatusOK
		switch {
		case !ok:
			if o.status == http.StatusTooManyRequests || o.status == http.StatusServiceUnavailable {
				rejected++
			}
			res.fail("request %d: status %d", i, o.status)
		case o.cache == "miss":
			misses = append(misses, ms(o.lat))
		case o.cache == "hit" || o.cache == "coalesced":
			if !l.matchesMiss(l.sched[i].key, o.body) {
				ok = false
				res.fail("request %d: %s body differs from its key's miss", i, o.cache)
			}
			if o.cache == "hit" {
				hits = append(hits, ms(o.lat))
				if o.traced {
					tracedHits = append(tracedHits, ms(o.lat))
				} else {
					plainHits = append(plainHits, ms(o.lat))
				}
			} else {
				coal = append(coal, ms(o.lat))
			}
		default:
			ok = false
			res.fail("request %d: X-Cache %q", i, o.cache)
		}
		// A failed request misses every latency limit: it sorts above
		// every real latency.
		if ok {
			all = append(all, ms(o.lat))
		} else {
			all = append(all, math.MaxFloat64)
		}
	}
	if err := l.checkDirect(res, cfg.seed, outs); err != nil {
		return nil, err
	}

	n := float64(len(outs))
	hitShare, coalShare, missShare := float64(len(hits))/n, float64(len(coal))/n, float64(len(misses))/n
	res.note("%d requests at %.0f/s, req_ms_p50 %.4f, req_ms_p99 %.4f (op_ms_p50, op_ms_tail)",
		len(outs), serveRate, quantile(all, 0.5), quantile(all, 0.99))
	res.note("shares: hit %.3f, coalesced %.3f, miss %.3f; generator late p99 %.4f ms; at most %d requests in flight",
		hitShare, coalShare, missShare, quantile(late, 0.99), peak)
	// Two computations run at once and share the program's
	// distance-table cache, so topology.distance.analytic depends on
	// their interleaving here; the other counters are exact.
	noteCounters(res, "whole load; topology.distance.analytic is schedule-dependent", counts)
	res.property(hitShare > 0.5, "hit share %.3f (want > 0.5), coalesced %.3f, miss %.3f", hitShare, coalShare, missShare)
	if !cfg.trace {
		res.set("setup_s", setup, "s")
		res.set("op_ms_p50", quantile(all, 0.5), "ms")
		res.set("op_ms_tail", quantile(all, 0.99), "ms")
		return res, nil
	}
	mem.finish(res)
	compute, err := l.computeMs(cfg.seed, outs)
	if err != nil {
		return nil, err
	}
	res.set("serve.hit_ms_p50", quantile(hits, 0.5), "ms")
	res.set("serve.coalesced_ms_p50", quantile(coal, 0.5), "ms")
	res.set("serve.miss_ms_p50", quantile(misses, 0.5), "ms")
	res.set("serve.hit_ratio", hitShare, "ratio")
	res.set("serve.coalesced_ratio", coalShare, "ratio")
	res.set("serve.rejected", float64(rejected), "count")
	res.set("serve.compute_ms", compute, "ms")
	res.set("serve.queue_wait_ms", quantile(misses, 0.5)-compute, "ms")
	res.set("resultcache.evictions", float64(snap1.Counters["resultcache.evictions"]-snap0.Counters["resultcache.evictions"]), "count")
	res.set("resultcache.bytes", snap1.Gauges["resultcache.bytes"], "bytes")
	res.set("loadgen.late_ms_p99", quantile(late, 0.99), "ms")
	res.set("loadgen.offered_rps", n/cfg.seconds, "1/s")
	res.set("bench.trace_overhead", quantile(tracedHits, 0.5)/quantile(plainHits, 0.5)-1, "ratio")
	setCounters(res, counts)
	return res, nil
}

// metrics reads the server's /metrics.json snapshot.
func (l *serveLoad) metrics() obs.Snapshot {
	rec := httptest.NewRecorder()
	l.h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/metrics.json", nil))
	var s obs.Snapshot
	_ = json.Unmarshal(rec.Body.Bytes(), &s) // a bad snapshot reads as zeros
	return s
}

func (l *serveLoad) matchesMiss(key int, body []byte) bool {
	for _, b := range l.missBody[key] {
		if bytes.Equal(b, body) {
			return true
		}
	}
	return false
}

// checkDirect recomputes one seeded-random key the load computed with a
// direct registry Run and compares the served result with it.
func (l *serveLoad) checkDirect(res *result, seed uint64, outs []reqOut) error {
	var computed []int
	for i, o := range outs {
		if o.status == http.StatusOK && o.cache == "miss" {
			computed = append(computed, i)
		}
	}
	if len(computed) == 0 {
		res.fail("the load computed no key")
		return nil
	}
	i := computed[rng.New(seed^0x7e57).Intn(len(computed))]
	spec, p := l.keys[l.sched[i].key].params()
	out, err := spec.Run(context.Background(), p)
	if err != nil {
		return err
	}
	want, err := json.Marshal(out.Result)
	if err != nil {
		return err
	}
	var env struct{ Result json.RawMessage }
	if err := json.Unmarshal(outs[i].body, &env); err != nil || !bytes.Equal(env.Result, want) {
		res.fail("request %d: served result differs from a direct registry Run", i)
		return nil
	}
	res.note("reference ok: request %d (%s) matches a direct registry Run", i, spec.Name)
	return nil
}

// computeMs times direct registry Runs of seeded-random miss keys, one
// at a time: the compute share of a miss without admission or queueing.
func (l *serveLoad) computeMs(seed uint64, outs []reqOut) (float64, error) {
	var computed []int
	for i, o := range outs {
		if o.status == http.StatusOK && o.cache == "miss" {
			computed = append(computed, i)
		}
	}
	r := rng.New(seed ^ 0xc0de)
	var times []float64
	for j := 0; j < computeSamples && len(computed) > 0; j++ {
		spec, p := l.keys[l.sched[computed[r.Intn(len(computed))]].key].params()
		start := time.Now()
		if _, err := spec.Run(context.Background(), p); err != nil {
			return 0, err
		}
		times = append(times, ms(time.Since(start)))
	}
	return quantile(times, 0.5), nil
}
