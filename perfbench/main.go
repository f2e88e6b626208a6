// Command perfbench is the repository's benchmark: one fresh process runs
// one named workload with one seed, checks every output against a
// reference computed apart from the code under test, and prints the
// end-to-end metrics (or, with -trace 1, the per-layer metrics) as the
// last line of standard output. See README.md for the workloads, the
// metrics and how they relate.
//
//	go run . --workload paper --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"
	"syscall"
	"time"
)

// env is one set-up workload: run executes the timed phase, finish the
// untimed code-quality measurements and the checks that need the whole
// run, and close releases what set-up started.
type env interface {
	run(r *runner)
	finish(r *runner)
	close()
}

// setupFunc builds a workload's environment: everything it needs before
// its first timed operation. The operation count is fixed per second of
// --seconds, so every run of one length does the same work.
type setupFunc func(seed int64, seconds int) (env, error)

// workloads are described in README.md, and why each is there in
// BENCHMARK.json.
var workloads = map[string]setupFunc{
	"paper":  setupPaper,
	"serve":  setupServe,
	"tiered": setupTiered,
}

// setupReps is how often set-up runs per process; setup_s is the median,
// so one slow repetition (a GC cycle, a cold page) does not move it. The
// first builds the environment the run uses; the others follow the run.
const setupReps = 21

// runner collects what one run measures. The workloads record through it
// from up to two goroutines.
type runner struct {
	tr *tracer

	mu        sync.Mutex
	lat       map[string][]float64 // class -> operation latencies, ms
	attempted int
	failed    int
	failures  []string
	checkErrs []string

	codeCycles []float64 // modelled cycles per unit of work, one per code object
	codeBytes  []float64 // size of each distinct generated code object

	counters map[string]float64 // per-layer counters read at the end of the run
}

func newRunner(tr *tracer) *runner {
	return &runner{tr: tr, lat: make(map[string][]float64), counters: make(map[string]float64)}
}

// op records one attempted operation: its class and latency when it
// succeeded, a failure otherwise.
func (r *runner) op(class string, d time.Duration, err error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.attempted++
	if err != nil {
		r.failed++
		if len(r.failures) < 5 {
			r.failures = append(r.failures, fmt.Sprintf("%s: %v", class, err))
		}
		return
	}
	r.lat[class] = append(r.lat[class], float64(d)/float64(time.Millisecond))
}

// check records a failed output check; any one makes the run incorrect.
func (r *runner) check(err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if len(r.checkErrs) < 10 {
		r.checkErrs = append(r.checkErrs, err.Error())
	} else if len(r.checkErrs) == 10 {
		r.checkErrs = append(r.checkErrs, "... (further check failures omitted)")
	}
}

func (r *runner) code(cycles float64, bytes int) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.codeCycles = append(r.codeCycles, cycles)
	if bytes > 0 {
		r.codeBytes = append(r.codeBytes, float64(bytes))
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	name := flag.String("workload", "", "workload to run: paper, serve or tiered")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Int("seconds", 10, "intended length of the timed phase; sets the operation count")
	traced := flag.Int("trace", 0, "1 re-runs the workload with per-layer timers and reports per-layer metrics")
	flag.Parse()

	setup, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload <paper|serve|tiered> --seed <n> --seconds <n> --trace <0|1>\n")
		os.Exit(2)
	}
	res, err := runWorkload(*name, setup, *seed, *seconds, *traced == 1)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(out))
	if !res.Correct {
		os.Exit(1)
	}
}

func runWorkload(name string, setup setupFunc, seed int64, seconds int, traced bool) (*result, error) {
	var tr *tracer
	if traced {
		tr = newTracer()
	}
	start := time.Now()
	e, err := setup(seed, seconds)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setups := []float64{time.Since(start).Seconds()}

	r := newRunner(tr)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	start = time.Now()
	e.run(r)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)
	r.counters["go.gc_cycles"] = float64(after.NumGC - before.NumGC)
	r.counters["go.gc_pause_ms"] = float64(after.PauseTotalNs-before.PauseTotalNs) / 1e6
	// Peak RSS covers set-up and the timed phase; finish's measurements
	// (Workload.MeasureRows copies the whole input matrix per call) would
	// otherwise set it.
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return nil, fmt.Errorf("getrusage: %w", err)
	}
	e.finish(r)
	e.close()

	// The further set-up repetitions come after the run, so their garbage
	// does not count in the run's peak RSS. Before each one the garbage of
	// the run and of the previous repetition is collected and the freed
	// memory returned to the OS, so every repetition starts as the first
	// did in a fresh process: no GC cycle pending, and no free pages held
	// that a later repetition would reuse while an earlier one faulted
	// them in (with only a GC, set-ups split into a fast and a slow group).
	e = nil
	for i := 1; i < setupReps; i++ {
		debug.FreeOSMemory()
		start := time.Now()
		ne, err := setup(seed, seconds)
		if err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		ne.close()
	}

	for _, f := range r.failures {
		fmt.Fprintf(os.Stderr, "perfbench: failed operation: %s\n", f)
	}
	for _, c := range r.checkErrs {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", c)
	}
	if r.attempted == 0 {
		return nil, fmt.Errorf("no operation attempted")
	}
	res := &result{
		Correct:   len(r.checkErrs) == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metric),
	}
	completed := r.attempted - r.failed
	printClasses(r)
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d operations in %.2fs (%.1f/s), set-up median %.4fs of %.4f\n",
		name, seed, r.attempted, elapsed.Seconds(), float64(completed)/elapsed.Seconds(), median(setups), setups)

	if !traced {
		put := func(k, unit string, v float64) { res.Metrics[k] = metric{Value: v, Unit: unit} }
		put("setup_s", "s", median(setups))
		put("ops_per_s", "1/s", float64(completed)/elapsed.Seconds())
		put("latency_ms_p50", "ms", classLatency(r.lat, 50))
		put("latency_ms_p75", "ms", classLatency(r.lat, 75))
		put("code_cycles", "cycles", geomean(r.codeCycles))
		put("code_bytes", "bytes", mean(r.codeBytes))
		put("heap_kb_per_op", "KB", float64(after.TotalAlloc-before.TotalAlloc)/1024/float64(r.attempted))
		put("peak_rss_mb", "MB", float64(ru.Maxrss)/1024) // Linux reports KiB
		return res, nil
	}

	// The counters become attributes of one closing span, so the spans file
	// alone holds everything the per-layer metrics are computed from.
	id := tr.begin("run.counters", -1, -1)
	var attrs []any
	for _, k := range sortedKeys(r.counters) {
		attrs = append(attrs, k, r.counters[k])
	}
	tr.end(id, attrs...)
	spans := tr.snapshot()
	spansOut := filepath.Join(".bench_build", fmt.Sprintf("spans-%s-%d.json", name, seed))
	if err := os.MkdirAll(filepath.Dir(spansOut), 0o755); err != nil {
		return nil, err
	}
	if err := tr.write(spansOut); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(spans), spansOut)
	printSelfTimes(os.Stderr, spans)
	for k, m := range layerMetrics(spans) {
		res.Metrics[k] = m
	}
	return res, nil
}

// printClasses writes each class's sample count and latency percentiles
// to standard error: the reference figures README.md records.
func printClasses(r *runner) {
	for _, c := range sortedKeys(r.lat) {
		xs := r.lat[c]
		fmt.Fprintf(os.Stderr, "perfbench: class %-28s n=%-6d p50 %.4f ms  p75 %.4f ms  p90 %.4f ms\n",
			c, len(xs), percentile(xs, 50), percentile(xs, 75), percentile(xs, 90))
	}
	fmt.Fprintf(os.Stderr, "perfbench: class geometric mean: p50 %.4f ms  p75 %.4f ms  p90 %.4f ms\n",
		classLatency(r.lat, 50), classLatency(r.lat, 75), classLatency(r.lat, 90))
}

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
