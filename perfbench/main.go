// Command perfbench is the repository's benchmark: it runs one named
// workload against the program's own packages for a fixed time, checks
// every output it produces, and prints the workload's metrics. See
// README.md in this directory for the workloads, the metrics and how
// to read a traced run.
//
// Usage (from the repository root):
//
//	bash perfbench/run.sh --workload table12-dense --seed 1 --seconds 20 --trace 0
//	bash perfbench/run.sh --workload all --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the last line of standard output is a JSON object
// carrying the end-to-end metrics; with --trace 1 it carries the
// per-layer metrics of a separate traced run, and the spans are written
// under .bench_build/perfbench/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// config is one invocation's workload parameters.
type config struct {
	seed    uint64
	seconds float64
	trace   bool
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one workload run reports. ops counts the operations
// attempted (sweeps, ticks or requests) and failed those that errored,
// were refused or produced a wrong output.
type result struct {
	ops, failed int
	metrics     map[string]metric
	// notes are human-readable lines printed before the JSON line:
	// the per-workload metric names, sample counts, exact counters and
	// workload-property checks.
	notes []string
	spans *tracer
	// propertyOK is the workload-property self-check's verdict.
	propertyOK bool
}

func (r *result) set(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

// property records the workload-property self-check: the run says
// when its workload no longer has the property that makes it
// informative, instead of quietly measuring a different mix. A drift
// does not fail the run, since an optimisation may move it on purpose.
func (r *result) property(ok bool, format string, args ...any) {
	r.propertyOK = ok
	if ok {
		r.note("property ok: "+format, args...)
	} else {
		r.note("PROPERTY DRIFT: "+format, args...)
	}
}

// maxFailNotes bounds the failures a run describes one by one.
const maxFailNotes = 10

// fail records one failed operation with its reason.
func (r *result) fail(format string, args ...any) {
	r.failed++
	if r.failed <= maxFailNotes {
		r.note("FAIL: "+format, args...)
	}
}

type workload struct {
	name string
	run  func(cfg config) (*result, error)
}

var workloads = []workload{
	{"table12-dense", runTable12Dense},
	{"fig6-sparse", runFig6Sparse},
	{"incr-drift", runIncrDrift},
	{"serve-mixed", runServeMixed},
}

func main() {
	name := flag.String("workload", "", "workload name, or all")
	seed := flag.Uint64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 20, "measurement time per run")
	trace := flag.Int("trace", 0, "1 runs the traced pass and reports per-layer metrics")
	flag.Parse()
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := config{seed: *seed, seconds: *seconds, trace: *trace == 1}
	// The workloads are sized for two vCPUs; on a bigger machine the
	// server's compute slots and the sweeps' workers stay at two, so
	// figures remain comparable.
	if runtime.GOMAXPROCS(0) > sweepWorkers {
		runtime.GOMAXPROCS(sweepWorkers)
	}
	var todo []workload
	for _, w := range workloads {
		if *name == "all" || *name == w.name {
			todo = append(todo, w)
		}
	}
	if len(todo) == 0 {
		fmt.Fprintf(os.Stderr, "perfbench: unknown workload %q (want all", *name)
		for _, w := range workloads {
			fmt.Fprintf(os.Stderr, ", %s", w.name)
		}
		fmt.Fprintln(os.Stderr, ")")
		os.Exit(2)
	}
	for _, w := range todo {
		res, err := w.run(cfg)
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
		if err := report(w.name, cfg, res); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", w.name, err)
			os.Exit(1)
		}
	}
}

// report prints the notes and metrics by name and unit, writes the
// spans of a traced run, and ends with the JSON result line.
func report(name string, cfg config, res *result) error {
	mode := "untraced"
	if cfg.trace {
		mode = "traced"
		ok := 0.0
		if res.propertyOK {
			ok = 1
		}
		res.set("bench.property_ok", ok, "bool")
		fillLayers(res)
	} else {
		res.note("fail_frac %.4g (%d failed of %d attempted)", float64(res.failed)/float64(res.ops), res.failed, res.ops)
	}
	if res.failed > maxFailNotes {
		res.note("FAIL: %d more failures not listed", res.failed-maxFailNotes)
	}
	fmt.Printf("== %s seed=%d seconds=%g %s\n", name, cfg.seed, cfg.seconds, mode)
	for _, n := range res.notes {
		fmt.Println("  " + n)
	}
	keys := make([]string, 0, len(res.metrics))
	for k := range res.metrics {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		m := res.metrics[k]
		fmt.Printf("  %-34s %14.6g %s\n", k, m.Value, m.Unit)
	}
	if cfg.trace && res.spans != nil {
		path := filepath.Join(".bench_build", "perfbench", fmt.Sprintf("trace-%s-seed%d.json", name, cfg.seed))
		if err := res.spans.writeFile(path); err != nil {
			return err
		}
		fmt.Printf("  spans written to %s\n", path)
	}
	line, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{res.failed == 0, res.ops, res.failed, res.metrics})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// timeSetup runs build five times and returns the median wall time in
// seconds together with the last build's value, which the workload
// then uses. Repeating it keeps setup_s steady enough to compare.
func timeSetup[T any](build func() (T, error)) (T, float64, error) {
	var v T
	var times []float64
	for i := 0; i < 5; i++ {
		start := time.Now()
		var err error
		v, err = build()
		if err != nil {
			return v, 0, err
		}
		times = append(times, time.Since(start).Seconds())
	}
	return v, quantile(times, 0.5), nil
}

// span returns the given share of the run's measurement time.
func (c config) span(share float64) time.Duration {
	return time.Duration(c.seconds * share * float64(time.Second))
}

// settle collects the garbage that set-up and the reference checks
// left behind, so the measured phase does not pay for it.
func settle() { runtime.GC() }
