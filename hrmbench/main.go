// Command hrmbench is hrmsim's end-to-end benchmark. It runs one
// workload for a fixed time and prints one JSON result line:
//
//	hrmbench --workload campaign-kvstore --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it reports the end-to-end metrics; with --trace 1 it
// alternates untraced and traced work, times every call into each
// layer's public functions from outside the program, and reports the
// per-layer metrics, the traced run's own end-to-end figures and the
// tracing overhead. Every run checks the program's outputs and exits
// non-zero when a check fails. README.md in this directory defines the
// workloads and every metric.
package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd are the metrics a user of hrmsim sees, printed by --trace 0.
// A "unit" of work is one campaign trial or one kv request.
var endToEnd = []metricDef{
	{"throughput_per_s", "1/s"},
	{"latency_p50_us", "us"},
	{"latency_p90_us", "us"},
	{"setup_s", "s"},
	{"alloc_b_per_unit", "B"},
	{"peak_rss_mb", "MB"},
}

// perLayer are the metrics of single layers, printed by --trace 1. A
// layer a workload does not reach reports 0.
var perLayer = []metricDef{
	// Set-up.
	{"core.golden_s", "s"},
	{"apps.build_s", "s"},
	{"apps.warmup_s", "s"},
	{"simmem.snapshot_ms", "ms"},
	// Restore.
	{"simmem.restore_us_p50", "us"},
	{"simmem.restore_us_p99", "us"},
	{"simmem.restore_dirty_pages", "count"},
	// Serve.
	{"apps.serve_us_p50", "us"},
	{"apps.serve_us_p99", "us"},
	{"apps.requests_per_trial", "count"},
	{"simmem.loads_per_unit", "count"},
	{"simmem.stores_per_unit", "count"},
	{"simmem.fastpath_load_ratio", "ratio"},
	{"simmem.tainted_words_per_trial", "count"},
	{"ecc.decode_calls_per_trial", "count"},
	{"ecc.encode_calls_per_trial", "count"},
	// Engine and the trial cycle's self-time split.
	{"core.cycle_us_mean", "us"},
	{"core.restore_share", "ratio"},
	{"core.serve_share", "ratio"},
	{"core.engine_share", "ratio"},
	{"core.engine_us_p50", "us"},
	{"core.engine_us_mean", "us"},
	{"core.journal_write_us", "us"},
	{"core.journal_bytes_per_trial", "B"},
	{"obsv.folds_per_trial", "count"},
	{"core.worker_busy_share", "ratio"},
	// Go runtime.
	{"runtime.gc_cpu_fraction", "ratio"},
	{"runtime.gc_per_1k_units", "count"},
	// Serving path.
	{"client.rtt_us_p50", "us"},
	{"client.rtt_us_p99", "us"},
	{"client.rtt_us_p999", "us"},
	{"client.rtt_us_mean", "us"},
	{"kvnode.conn_service_us_p50", "us"},
	{"kvnode.conn_service_us_p99", "us"},
	{"kvnode.conn_service_us_mean", "us"},
	{"kvnode.dispatch_us_mean", "us"},
	{"net.transit_us_p50", "us"},
	{"net.transit_us_mean", "us"},
	{"kvnode.writes_per_op", "count"},
	// The traced run's own end-to-end figures and the tracer's cost.
	{"traced.throughput_per_s", "1/s"},
	{"traced.latency_p50_us", "us"},
	{"traced.latency_p90_us", "us"},
	{"traced.latency_p99_us", "us"},
	{"traced.latency_samples", "count"},
	{"untraced.throughput_per_s", "1/s"},
	{"trace.overhead_pct", "%"},
	{"trace.bookkeeping_us_per_unit", "us"},
	{"trace.spans", "count"},
	// Reconciliation of the spans against the wall clock.
	{"reconcile.violations", "count"},
	{"reconcile.unaccounted_share", "ratio"},
}

// options are the command-line settings of one run.
type options struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	smoke    bool   // tiny sizes, for the benchmark's own tests
	outDir   string // scratch files (journals, span dumps)
}

// defaultSeed is the seed whose campaign outcome counts are pinned.
const defaultSeed = 1

// result is what one workload run measured.
type result struct {
	correct   bool
	attempted int64
	failed    int64
	problems  []string // failed output checks, reported on stderr
	values    map[string]float64
	notes     map[string]any // capture details: sample counts, spreads
}

func newResult() *result {
	return &result{correct: true, values: map[string]float64{}, notes: map[string]any{}}
}

// fail records a failed output check.
func (r *result) fail(format string, args ...any) {
	r.correct = false
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// spread records a per-run distribution (one value per batch or phase)
// in the capture notes as its median and quartiles.
func (r *result) spread(name string, xs []float64) {
	q1, med, q3 := quartiles(xs)
	r.notes[name] = map[string]any{"n": len(xs), "q1": q1, "median": med, "q3": q3}
}

type workloadFunc func(opts options) (*result, error)

var workloads = map[string]workloadFunc{
	"campaign-kvstore":        func(o options) (*result, error) { return runCampaign(kvstoreNoECC, o) },
	"campaign-kvstore-secded": func(o options) (*result, error) { return runCampaign(kvstoreSECDED, o) },
	"serve-kv":                runServeKV,
}

func main() {
	opts, err := parseFlags(os.Args[1:])
	if err != nil {
		fmt.Fprintln(os.Stderr, "hrmbench:", err)
		os.Exit(2)
	}
	res, err := runWorkload(opts)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hrmbench:", err)
		os.Exit(1)
	}
	for _, p := range res.problems {
		fmt.Fprintln(os.Stderr, "hrmbench: check failed:", p)
	}
	capture, line, err := render(opts, res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hrmbench:", err)
		os.Exit(1)
	}
	fmt.Println(capture)
	fmt.Println(line)
	if !res.correct {
		os.Exit(1)
	}
}

func parseFlags(args []string) (options, error) {
	fs := flag.NewFlagSet("hrmbench", flag.ContinueOnError)
	var o options
	var trace int
	fs.StringVar(&o.workload, "workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
	fs.Int64Var(&o.seed, "seed", defaultSeed, "seed the workload's inputs derive from")
	fs.Float64Var(&o.seconds, "seconds", 10, "measured time in seconds")
	fs.IntVar(&trace, "trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a traced run")
	fs.BoolVar(&o.smoke, "smoke", false, "tiny inputs, for the benchmark's own tests")
	fs.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "hrmbench"), "directory for journals and span dumps")
	if err := fs.Parse(args); err != nil {
		return o, err
	}
	if _, ok := workloads[o.workload]; !ok {
		return o, fmt.Errorf("unknown workload %q (want one of %s)", o.workload, strings.Join(workloadNames(), ", "))
	}
	if o.seconds <= 0 {
		return o, fmt.Errorf("--seconds must be positive, got %g", o.seconds)
	}
	if trace != 0 && trace != 1 {
		return o, fmt.Errorf("--trace must be 0 or 1, got %d", trace)
	}
	o.trace = trace == 1
	return o, nil
}

func workloadNames() []string {
	names := make([]string, 0, len(workloads))
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// runWorkload runs the selected workload and checks that it reported
// every metric its mode promises.
func runWorkload(opts options) (*result, error) {
	if err := os.MkdirAll(opts.outDir, 0o755); err != nil {
		return nil, fmt.Errorf("creating %s: %w", opts.outDir, err)
	}
	res, err := workloads[opts.workload](opts)
	if err != nil {
		return nil, err
	}
	if res.attempted < 1 {
		return nil, errors.New("the run attempted no work")
	}
	return res, nil
}

// render formats the capture line (run metadata and per-run spreads)
// and the final result line.
func render(opts options, res *result) (capture, line string, err error) {
	defs := endToEnd
	if opts.trace {
		defs = perLayer
	}
	ms := make(map[string]map[string]any, len(defs))
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok {
			return "", "", fmt.Errorf("workload %s did not report %s", opts.workload, d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return "", "", fmt.Errorf("workload %s reported %s = %v", opts.workload, d.name, v)
		}
		ms[d.name] = map[string]any{"value": v, "unit": d.unit}
	}
	out, err := json.Marshal(map[string]any{
		"correct":   res.correct,
		"attempted": res.attempted,
		"failed":    res.failed,
		"metrics":   ms,
	})
	if err != nil {
		return "", "", err
	}
	meta := captureMeta(opts)
	meta["details"] = res.notes
	capLine, err := json.Marshal(map[string]any{"capture": meta})
	if err != nil {
		return "", "", err
	}
	return string(capLine), string(out), nil
}

// captureMeta describes the host, toolchain and run settings a result
// was measured under.
func captureMeta(opts options) map[string]any {
	commit := "unknown"
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				commit = s.Value
			}
		}
	}
	return map[string]any{
		"workload":   opts.workload,
		"seed":       opts.seed,
		"seconds":    opts.seconds,
		"trace":      opts.trace,
		"cpu_model":  cpuModel(),
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go_version": runtime.Version(),
		"commit":     commit,
		"goos":       runtime.GOOS,
		"goarch":     runtime.GOARCH,
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo.
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// rssEvery is how often a run samples its resident set, and rssWindow
// how many samples make one window.
const (
	rssEvery  = 50 * time.Millisecond
	rssWindow = 20
)

// rssSampler samples the resident set (VmRSS) while a measured phase
// runs, leaving out start-up's.
type rssSampler struct {
	once    sync.Once
	stop    chan struct{}
	done    chan struct{}
	samples []float64 // MiB; written by the sampler before done closes
}

// startRSS starts sampling; expect is how long the phase should last.
func startRSS(expect time.Duration) *rssSampler {
	s := &rssSampler{
		stop: make(chan struct{}),
		done: make(chan struct{}),
		// Sized for the phase, so the sampler's own garbage stays out
		// of the run's allocations per unit.
		samples: make([]float64, 0, int(expect/rssEvery)+2*rssWindow),
	}
	go func() {
		defer close(s.done)
		f, err := os.Open("/proc/self/status")
		if err != nil {
			s.samples = append(s.samples, math.NaN())
			return
		}
		defer f.Close()
		buf := make([]byte, 8192) // one buffer for every read
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		s.samples = append(s.samples, residentMB(f, buf))
		for {
			select {
			case <-t.C:
				s.samples = append(s.samples, residentMB(f, buf))
			case <-s.stop:
				s.samples = append(s.samples, residentMB(f, buf))
				return
			}
		}
	}()
	return s
}

// peak stops the sampler, waits for it, and returns the median over
// the phase's windows of rssWindow samples (one second) of each one's
// largest sample, in MiB; NaN if /proc/self/status cannot be read. A
// heap that peaks once, at a late GC cycle, does not set the figure.
// Later calls return the same value.
func (s *rssSampler) peak() float64 {
	s.once.Do(func() { close(s.stop) })
	<-s.done
	var peaks []float64
	for i := 0; i < len(s.samples); i += rssWindow {
		peaks = append(peaks, slices.Max(s.samples[i:min(i+rssWindow, len(s.samples))]))
	}
	return median(peaks)
}

var vmRSS = []byte("VmRSS:")

// residentMB reads the resident set (VmRSS) from an open
// /proc/self/status in MiB, or NaN.
func residentMB(f *os.File, buf []byte) float64 {
	n, err := f.ReadAt(buf, 0)
	if err != nil && !errors.Is(err, io.EOF) {
		return math.NaN()
	}
	i := bytes.Index(buf[:n], vmRSS)
	if i < 0 {
		return math.NaN()
	}
	kb, seen := 0.0, false
	for _, c := range buf[i+len(vmRSS) : n] {
		switch {
		case c >= '0' && c <= '9':
			kb, seen = kb*10+float64(c-'0'), true
		case seen:
			return kb / 1024
		}
	}
	return math.NaN()
}

// runtimeSample is a reading of the Go runtime's cumulative counters.
type runtimeSample struct {
	allocBytes, gcCycles float64
	gcCPU, totalCPU      float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

// readRuntime samples the runtime without stopping the world.
func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	val := func(i int) float64 {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			return s[i].Value.Float64()
		}
		return math.NaN()
	}
	return runtimeSample{allocBytes: val(0), gcCycles: val(1), gcCPU: val(2), totalCPU: val(3)}
}

// setRuntimeMetrics reports the GC's share of CPU and its cycle rate
// from the runtime counters' change d over units of work. The CPU
// classes are estimates the runtime refreshes at each GC.
func (r *result) setRuntimeMetrics(d runtimeSample, units float64) {
	r.values["runtime.gc_cpu_fraction"] = ratio(d.gcCPU, d.totalCPU)
	r.values["runtime.gc_per_1k_units"] = ratio(1000*d.gcCycles, units)
}

// zero sets every named metric to 0: layers the workload does not reach.
func (r *result) zero(names ...string) {
	for _, n := range names {
		r.values[n] = 0
	}
}

// seconds converts nanoseconds to seconds.
func seconds(ns int64) float64 { return float64(ns) / 1e9 }
