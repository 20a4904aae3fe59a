package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hrmsim"
	"hrmsim/internal/apps"
	"hrmsim/internal/apps/kvstore"
	"hrmsim/internal/core"
	"hrmsim/internal/ecc"
	"hrmsim/internal/faults"
	"hrmsim/internal/obsv"
	"hrmsim/internal/simmem"
)

// Both campaign workloads run KVStore at hrmsim's SizeMedium with these
// settings, and attach an obsv.Registry and a file-backed core.Journal
// as `hrmsim characterize -json -journal` does.
const (
	campaignPar    = 2    // core.CampaignConfig.Parallelism
	campaignTrials = 1000 // trials per campaign ("batch")
	// warmupPerMille of the golden requests are served before each
	// injection: the long-running-process convention of bench_test.go.
	warmupPerMille = 900
)

// campaignWorkload is one injection-campaign workload. A run executes
// back-to-back campaigns ("batches") until its time is up; batch k uses
// campaign seed campaignSeed(seed, k), so a batch's trials, and
// therefore its outcome counts, depend only on (seed, k).
type campaignWorkload struct {
	name   string
	secded bool // SEC-DED on KVStore's heap and stack
	// pinned are the Fig. 1 outcome counts of batch 0 at the default seed.
	pinned map[string]int
}

var kvstoreNoECC = campaignWorkload{
	name: "campaign-kvstore",
	pinned: map[string]int{
		"masked_by_overwrite": 6, "masked_by_logic": 1, "masked_latent": 949,
		"incorrect_response": 38, "crash": 6,
	},
}

// kvstoreSECDED is campaign-kvstore with SEC-DED on the heap and stack
// and nothing else changed, so the ratio of the two is the ECC's cost.
var kvstoreSECDED = campaignWorkload{
	name:   "campaign-kvstore-secded",
	secded: true,
	pinned: map[string]int{"masked_by_overwrite": 6, "masked_by_logic": 45, "masked_latent": 949},
}

// build returns the workload's KVStore builder at SizeMedium (512 keys,
// 600 requests; SizeSmall's 128 and 200 for smoke runs), configured as
// hrmsim.NewBuilder configures it, and its golden request count. wrap
// is applied to every codec handed to the application.
func (w campaignWorkload) build(seed int64, smoke bool, wrap func(simmem.Codec) simmem.Codec) (apps.SnapshotBuilder, int, error) {
	cfg := kvstore.DefaultConfig(seed)
	cfg.RequestCost = 2 * time.Second
	cfg.Keys, cfg.Ops = 512, 600
	if smoke {
		cfg.Keys, cfg.Ops = 128, 200
	}
	if w.secded {
		cfg.HeapCodec, cfg.StackCodec = wrap(ecc.NewSECDED()), wrap(ecc.NewSECDED())
	}
	b, err := kvstore.NewBuilder(cfg)
	if err != nil {
		return nil, 0, err
	}
	app, err := b.Build()
	if err != nil {
		return nil, 0, err
	}
	return b, app.NumRequests(), nil
}

// datasetSeed fixes KVStore's generated request trace, so a run's
// --seed selects only the injection schedule: every seed measures the
// same application at the same size.
const datasetSeed = 1

// campaignSeed derives batch k's campaign seed.
func campaignSeed(seed int64, k int) int64 { return seed*1_000_003 + int64(k) }

// codecCalls counts the Encode and Decode calls of every codec wrapped
// with it.
type codecCalls struct{ encodes, decodes atomic.Int64 }

func (c *codecCalls) wrap(inner simmem.Codec) simmem.Codec { return countingCodec{inner, c} }

// countingCodec forwards to its codec and counts the calls.
type countingCodec struct {
	simmem.Codec
	n *codecCalls
}

func (c countingCodec) Encode(data, check []byte) {
	c.n.encodes.Add(1)
	c.Codec.Encode(data, check)
}

func (c countingCodec) Decode(data, check []byte) simmem.Verdict {
	c.n.decodes.Add(1)
	return c.Codec.Decode(data, check)
}

// read returns the calls counted so far (none for a nil counter).
func (c *codecCalls) read() (decodes, encodes int64) {
	if c == nil {
		return 0, 0
	}
	return c.decodes.Load(), c.encodes.Load()
}

func identityCodec(c simmem.Codec) simmem.Codec { return c }

// batchRec collects what one campaign's wrapped builder and apps saw.
// Every worker records into its own recApp; the shared fields are
// written once, under first, or before and after core.Run.
type batchRec struct {
	traced bool
	epoch  time.Time
	hint   int // trials per worker, to size the per-trial buffer

	first   sync.Once
	firstAt int64 // entry of the campaign's first Reset

	goldenStart, goldenEnd int64 // traced: Build entry → last golden Serve exit

	built atomic.Int32 // traced: worker instances built so far

	mu   sync.Mutex
	apps []*recApp
}

func (r *batchRec) now() int64 { return int64(time.Since(r.epoch)) }

// countedBuilder is a builder whose codecs count their calls.
type countedBuilder struct {
	apps.SnapshotBuilder
	calls *codecCalls
}

// recBuilder wraps the workload's builder. core.Run type-asserts only
// apps.SnapshotBuilder, so the wrapper keeps the snapshot lifecycle.
// Traced, worker i's instance comes from workers[i], so each worker's
// codec calls are counted apart from the others'.
type recBuilder struct {
	inner   apps.SnapshotBuilder
	workers []countedBuilder // traced only
	rec     *batchRec
}

func (b recBuilder) AppName() string { return b.inner.AppName() }

// Build serves the golden run.
func (b recBuilder) Build() (apps.App, error) {
	if !b.rec.traced {
		return b.inner.Build()
	}
	b.rec.goldenStart = b.rec.now()
	app, err := b.inner.Build()
	if err != nil {
		return nil, err
	}
	return goldenApp{app, b.rec}, nil
}

// BuildSnapshot builds one worker's instance.
func (b recBuilder) BuildSnapshot() (apps.SnapshotApp, error) {
	start := b.rec.now()
	inner, calls := b.inner, (*codecCalls)(nil)
	if b.rec.traced {
		// core rebuilds a worker's instance only after a failed trial,
		// which fails the run anyway.
		i := int(b.rec.built.Add(1)) - 1
		if i >= len(b.workers) {
			return nil, fmt.Errorf("worker instance %d built, for %d workers", i+1, len(b.workers))
		}
		inner, calls = b.workers[i], b.workers[i].calls
	}
	app, err := inner.BuildSnapshot()
	if err != nil {
		return nil, err
	}
	a := &recApp{
		SnapshotApp: app,
		rec:         b.rec,
		as:          app.Space(),
		calls:       calls,
		buildStart:  start,
		buildEnd:    b.rec.now(),
	}
	if b.rec.traced {
		a.trials = make([]trialSpan, 0, b.rec.hint)
	} else {
		a.resets = make([]int64, 0, b.rec.hint+1)
	}
	b.rec.mu.Lock()
	b.rec.apps = append(b.rec.apps, a)
	b.rec.mu.Unlock()
	return a, nil
}

// goldenApp times the golden run's requests.
type goldenApp struct {
	apps.App
	rec *batchRec
}

func (g goldenApp) Serve(i int) (apps.Response, error) {
	defer func() { g.rec.goldenEnd = g.rec.now() }()
	return g.App.Serve(i)
}

// recApp wraps one worker's instance. Untraced, it only stamps the entry
// of every Reset (the trial cycle boundary). Traced, it also times every
// Reset and Serve, and reads the address space's counters at each cycle
// boundary.
type recApp struct {
	apps.SnapshotApp
	rec   *batchRec
	as    *simmem.AddressSpace
	calls *codecCalls // traced: this worker's counted codecs

	started    bool
	firstAt    int64   // entry of the worker's first Reset
	firstAlloc float64 // heap bytes allocated by then

	buildStart, buildEnd int64
	warmStart, warmEnd   int64
	warmServes           int
	snapStart, snapEnd   int64
	snapped              bool
	last                 int64 // latest recorded event

	resets []int64 // untraced: Reset entries

	trials   []trialSpan // traced
	serves   latHist     // traced: every post-snapshot Serve span, ns
	base     simmem.Counters
	baseFast uint64
	baseDec  int64
	baseEnc  int64
}

func (a *recApp) Snapshot() error {
	a.snapStart = a.rec.now()
	err := a.SnapshotApp.Snapshot()
	a.snapEnd = a.rec.now()
	a.snapped = true
	a.last = a.snapEnd
	return err
}

func (a *recApp) Reset() (int, error) {
	a.rec.first.Do(func() { a.rec.firstAt = a.rec.now() })
	if !a.started {
		a.started = true
		a.firstAt, a.firstAlloc = a.rec.now(), readRuntime().allocBytes
	}
	t0 := a.rec.now()
	if !a.rec.traced {
		a.resets = append(a.resets, t0)
		return a.SnapshotApp.Reset()
	}
	if n := len(a.trials); n > 0 {
		a.closeTrial(&a.trials[n-1])
		a.trials[n-1].end = t0
	}
	t1 := a.rec.now()
	dirty, err := a.SnapshotApp.Reset()
	t2 := a.rec.now()
	a.base = a.as.Counters()
	a.baseFast = a.as.FastPathLoads()
	a.baseDec, a.baseEnc = a.calls.read()
	t3 := a.rec.now()
	a.trials = append(a.trials, trialSpan{
		start:   t0,
		restore: t2 - t1,
		book:    (t1 - t0) + (t3 - t2),
		dirty:   dirty,
	})
	a.last = t3
	return dirty, err
}

// closeTrial reads the finished trial's memory counters; the
// counters are part of the snapshot, so they must be read before the
// next restore rolls them back.
func (a *recApp) closeTrial(t *trialSpan) {
	c := a.as.Counters()
	t.loads = c.Loads - a.base.Loads
	t.stores = c.Stores - a.base.Stores
	t.fastLoads = a.as.FastPathLoads() - a.baseFast
	_, t.tainted = a.as.TaintStats()
	dec, enc := a.calls.read()
	t.decodes, t.encodes = dec-a.baseDec, enc-a.baseEnc
}

func (a *recApp) Serve(i int) (apps.Response, error) {
	if !a.rec.traced {
		return a.SnapshotApp.Serve(i)
	}
	start := a.rec.now()
	defer a.served(start)
	return a.SnapshotApp.Serve(i)
}

// served closes one Serve span, which also runs when the request panics
// (the engine recovers it as a crash).
func (a *recApp) served(start int64) {
	end := a.rec.now()
	a.last = end
	if !a.snapped {
		if a.warmServes == 0 {
			a.warmStart = start
		}
		a.warmServes++
		a.warmEnd = end
		return
	}
	t := &a.trials[len(a.trials)-1]
	t.serve += end - start
	t.serves++
	a.serves.add(float64(end - start))
}

// startsFrom counts the worker's trials that began at or after t.
func (a *recApp) startsFrom(t int64) int {
	n := 0
	for _, r := range a.resets {
		if r >= t {
			n++
		}
	}
	for _, tr := range a.trials {
		if tr.start >= t {
			n++
		}
	}
	return n
}

// finish reads the counters of the worker's last, still open, trial
// and lets go of the instance, so a run keeps only its measurements.
func (a *recApp) finish() {
	if n := len(a.trials); n > 0 {
		a.closeTrial(&a.trials[n-1])
	}
	a.SnapshotApp, a.as = nil, nil
}

// timedWriter counts the journal's writes to its file and, when timed,
// times them. core.Journal serializes its writes, so the counts need no
// lock.
type timedWriter struct {
	f      *os.File
	timed  bool
	writes int64
	bytes  int64
	ns     int64
}

func (w *timedWriter) Write(p []byte) (int, error) {
	if !w.timed {
		w.writes++
		n, err := w.f.Write(p)
		w.bytes += int64(n)
		return n, err
	}
	start := time.Now()
	n, err := w.f.Write(p)
	w.ns += int64(time.Since(start))
	w.writes++
	w.bytes += int64(n)
	return n, err
}

// Close lets core.Journal close the file.
func (w *timedWriter) Close() error { return w.f.Close() }

// batchOut is one campaign's measurements.
type batchOut struct {
	wall, setup int64 // core.Run wall time; Run entry → first Reset
	// alloc is the heap allocated from the last worker's first Reset to
	// the end of core.Run, by the allocTrials trials begun in that time:
	// no worker's set-up falls in it.
	alloc       float64
	allocTrials int
	outcomes    []core.Outcome // dropped once compared, to keep the run's memory its own
	counts      map[string]int
	folds       int64
	p50, p90    float64 // of the campaign's closed trial cycles, ns

	rec     *batchRec // traced only
	journal *timedWriter
}

// runBatch runs campaign k of the run, traced when workers holds a
// counted builder per worker, and adds its closed trial cycles (ns) to
// cycles. b serves the golden run.
func (w campaignWorkload) runBatch(b apps.SnapshotBuilder, workers []countedBuilder, requests int, opts options, k int, cycles *latHist) (*batchOut, error) {
	traced := workers != nil
	warmup := requests * warmupPerMille / 1000
	rec := &batchRec{traced: traced, hint: campaignTrials/campaignPar + 1}
	cfg := core.CampaignConfig{
		Builder:     recBuilder{b, workers, rec},
		Lifecycle:   core.LifecycleSnapshot,
		Spec:        faults.SingleBitSoft,
		Trials:      campaignTrials,
		Seed:        campaignSeed(opts.seed, k),
		Warmup:      warmup,
		Parallelism: campaignPar,
		Metrics:     obsv.NewRegistry(),
	}
	out := &batchOut{}
	if traced {
		out.rec = rec
	}
	f, err := os.Create(filepath.Join(opts.outDir, "journal-"+w.name+".jsonl"))
	if err != nil {
		return nil, fmt.Errorf("creating journal: %w", err)
	}
	tw := &timedWriter{f: f, timed: traced}
	j, err := core.NewJournal(tw, core.JournalMeta{
		App: b.AppName(), Error: string(hrmsim.SoftSingleBit),
		Trials: campaignTrials, Seed: cfg.Seed, Warmup: warmup,
	})
	if err != nil {
		f.Close()
		return nil, err
	}
	*tw = timedWriter{f: f, timed: traced} // count the trial records only, not the header
	cfg.Journal = j
	out.journal = tw

	rec.epoch = time.Now()
	res, err := core.Run(cfg)
	out.wall = rec.now()
	endAlloc := readRuntime().allocBytes
	if cerr := j.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("journal: %w", cerr)
	}
	if err != nil {
		return nil, fmt.Errorf("%s batch %d: %w", w.name, k, err)
	}
	if rec.firstAt == 0 {
		return nil, fmt.Errorf("%s batch %d ran no trial", w.name, k)
	}
	out.setup = rec.firstAt
	last := rec.apps[0]
	for _, a := range rec.apps[1:] {
		if a.firstAt > last.firstAt {
			last = a
		}
	}
	out.alloc = endAlloc - last.firstAlloc
	for _, a := range rec.apps {
		out.allocTrials += a.startsFrom(last.firstAt)
	}
	out.counts = map[string]int{}
	for _, o := range core.Outcomes() {
		out.counts[o.MetricName()] = res.Count(o)
	}
	if res.Completed() != campaignTrials || res.AbortedCount() != 0 {
		return out, fmt.Errorf("%s batch %d: %d of %d trials completed, %d aborted",
			w.name, k, res.Completed(), campaignTrials, res.AbortedCount())
	}
	out.outcomes = make([]core.Outcome, len(res.Trials))
	for i, tr := range res.Trials {
		out.outcomes[i] = tr.Outcome
	}
	out.folds = cfg.Metrics.Counter("campaign_metrics_folds_total").Value()
	if n := cfg.Metrics.Counter("campaign_trials_total").Value(); n != campaignTrials {
		return out, fmt.Errorf("%s batch %d: campaign_trials_total = %d, want %d", w.name, k, n, campaignTrials)
	}
	if tw.writes != campaignTrials {
		return out, fmt.Errorf("%s batch %d: %d journal writes for %d trials", w.name, k, tw.writes, campaignTrials)
	}
	var own latHist
	for _, a := range rec.apps {
		a.finish()
		if traced {
			for _, t := range a.trials {
				if t.closed() {
					own.add(float64(t.cycle()))
				}
			}
			continue
		}
		for i := 1; i < len(a.resets); i++ {
			own.add(float64(a.resets[i] - a.resets[i-1]))
		}
	}
	out.p50, out.p90 = own.percentile(50), own.percentile(90)
	cycles.merge(&own)
	return out, nil
}

// runCampaign runs the workload for opts.seconds. Untraced, every batch
// is measured plainly. Traced, batch k runs twice, plainly and then
// traced; the two must classify every trial identically, and the pair
// gives the tracing overhead.
func runCampaign(w campaignWorkload, opts options) (*result, error) {
	res := newResult()
	plain, requests, err := w.build(datasetSeed, opts.smoke, identityCodec)
	if err != nil {
		return nil, err
	}
	var counted []countedBuilder
	for i := 0; opts.trace && i < campaignPar; i++ {
		calls := &codecCalls{}
		b, _, err := w.build(datasetSeed, opts.smoke, calls.wrap)
		if err != nil {
			return nil, err
		}
		counted = append(counted, countedBuilder{b, calls})
	}

	var plainRuns, tracedRuns []*batchOut
	var plainCycles, tracedCycles latHist
	var rt runtimeSample
	// Drop the builders' construction garbage so the resident set the
	// run reports is the campaigns'.
	debug.FreeOSMemory()
	runFor := time.Duration(opts.seconds * float64(time.Second))
	rss := startRSS(runFor)
	defer rss.peak()
	start := time.Now()
	for k := 0; k == 0 || time.Since(start) < runFor; k++ {
		res.attempted += campaignTrials
		p, err := w.runBatch(plain, nil, requests, opts, k, &plainCycles)
		if err != nil {
			return nil, err
		}
		plainRuns = append(plainRuns, p)
		if k == 0 && opts.seed == defaultSeed && !opts.smoke {
			checkPinned(res, w, p.counts)
		}
		if !opts.trace {
			p.outcomes = nil
			continue
		}
		res.attempted += campaignTrials
		rt0 := readRuntime()
		t, err := w.runBatch(plain, counted, requests, opts, k, &tracedCycles)
		rt = addRuntime(rt, rt0, readRuntime())
		if err != nil {
			return nil, err
		}
		tracedRuns = append(tracedRuns, t)
		if !sameOutcomes(p.outcomes, t.outcomes) {
			res.fail("batch %d: traced outcomes %v differ from untraced %v", k, t.counts, p.counts)
		}
		p.outcomes, t.outcomes = nil, nil
	}
	res.notes["batch_trials"] = campaignTrials
	res.notes["batches"] = len(plainRuns)
	res.notes["outcome_counts_batch0"] = plainRuns[0].counts

	peak := rss.peak()
	e2e := campaignEndToEnd(plainRuns, &plainCycles, res)
	if !opts.trace {
		for k, v := range e2e {
			res.values[k] = v
		}
		res.values["peak_rss_mb"] = peak
		return res, nil
	}
	traced := campaignEndToEnd(tracedRuns, &tracedCycles, newResult())
	res.values["traced.throughput_per_s"] = traced["throughput_per_s"]
	res.values["traced.latency_p50_us"] = traced["latency_p50_us"]
	res.values["traced.latency_p90_us"] = traced["latency_p90_us"]
	res.values["traced.latency_p99_us"] = traced["latency_p99_us"]
	res.values["untraced.throughput_per_s"] = e2e["throughput_per_s"]
	res.values["trace.overhead_pct"] = 100 * (e2e["throughput_per_s"]/traced["throughput_per_s"] - 1)
	res.setRuntimeMetrics(rt, float64(len(tracedRuns)*campaignTrials))
	campaignLayers(w, tracedRuns, res)
	return res, dumpCampaignSpans(w, tracedRuns, opts)
}

// addRuntime accumulates the runtime counters' change between from and
// to into acc.
func addRuntime(acc, from, to runtimeSample) runtimeSample {
	acc.allocBytes += to.allocBytes - from.allocBytes
	acc.gcCycles += to.gcCycles - from.gcCycles
	acc.gcCPU += to.gcCPU - from.gcCPU
	acc.totalCPU += to.totalCPU - from.totalCPU
	return acc
}

func sameOutcomes(a, b []core.Outcome) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// checkPinned compares batch 0's outcome counts at the default seed
// with the workload's pinned counts.
func checkPinned(res *result, w campaignWorkload, counts map[string]int) {
	for name, got := range counts {
		if want := w.pinned[name]; got != want {
			res.fail("%s: batch 0 outcome %s = %d at seed %d, pinned %d (counts %v)",
				w.name, name, got, defaultSeed, want, counts)
		}
	}
}

// campaignEndToEnd derives the end-to-end metrics from a run's
// campaigns. Throughput and the p50 and p90 are the median campaign's,
// as serve-kv's are the median window's, so the periods in which the
// host slows the run do not move them. The p99, which no gate uses,
// pools every trial.
func campaignEndToEnd(runs []*batchOut, cycles *latHist, res *result) map[string]float64 {
	var allocTrials, alloc float64
	var setups, rates, p50, p90 []float64
	for _, b := range runs {
		allocTrials += float64(b.allocTrials)
		alloc += b.alloc
		setups = append(setups, seconds(b.setup))
		rates = append(rates, campaignTrials/seconds(b.wall-b.setup))
		p50 = append(p50, b.p50/1e3)
		p90 = append(p90, b.p90/1e3)
	}
	res.spread("throughput_per_s_by_batch", rates)
	res.spread("latency_p90_us_by_batch", p90)
	res.spread("setup_s_by_batch", setups)
	res.notes["latency_samples"] = cycles.n
	return map[string]float64{
		"throughput_per_s": median(rates),
		"latency_p50_us":   median(p50),
		"latency_p90_us":   median(p90),
		"latency_p99_us":   cycles.percentile(99) / 1e3,
		"setup_s":          median(setups),
		"alloc_b_per_unit": alloc / allocTrials,
	}
}

// campaignLayers derives the per-layer metrics from the traced batches
// and runs the reconciliation checks.
func campaignLayers(w campaignWorkload, runs []*batchOut, res *result) {
	var golden, builds, warmups, snaps []float64
	var restores, serves, engines latHist // ns
	var n, dirty, requests, loads, stores, fast, tainted, decodes, encodes float64
	var cycleSum, restoreSum, serveSum, engineSum, bookSum, closedN float64
	var busyCycles, busyWall, folds float64
	var jWrites, jBytes, jNs float64
	spans := 0
	violations := 0
	var unaccounted, wallSum float64
	var shares []float64 // each campaign's uncovered share
	for _, b := range runs {
		r := b.rec
		golden = append(golden, seconds(r.goldenEnd-r.goldenStart))
		spansOf := []span{{r.goldenStart, r.goldenEnd}}
		var batchCycles int64
		spans += 2 // the campaign and its golden run
		for _, a := range r.apps {
			builds = append(builds, seconds(a.buildEnd-a.buildStart))
			warmup := 0.0
			if a.warmServes > 0 {
				warmup = seconds(a.warmEnd - a.warmStart)
			}
			warmups = append(warmups, warmup)
			snaps = append(snaps, float64(a.snapEnd-a.snapStart)/1e6)
			spansOf = append(spansOf, span{a.buildStart, a.last})
			spans += 2 + a.warmServes + int(a.serves.n)
			serves.merge(&a.serves)
			violations += trialViolations(a.trials)
			for _, t := range a.trials {
				spans += 2
				n++
				dirty += float64(t.dirty)
				requests += float64(t.serves)
				loads += float64(t.loads)
				stores += float64(t.stores)
				fast += float64(t.fastLoads)
				tainted += float64(t.tainted)
				decodes += float64(t.decodes)
				encodes += float64(t.encodes)
				bookSum += float64(t.book)
				restores.add(float64(t.restore))
				if !t.closed() {
					continue
				}
				closedN++
				batchCycles += t.cycle()
				cycleSum += float64(t.cycle())
				restoreSum += float64(t.restore)
				serveSum += float64(t.serve)
				engineSum += float64(t.engine())
				engines.add(float64(t.engine()))
			}
		}
		gap := uncovered(b.wall, spansOf)
		unaccounted += float64(gap)
		wallSum += float64(b.wall)
		shares = append(shares, float64(gap)/float64(b.wall))
		if busy := busyShare(batchCycles, campaignPar, b.wall); busy > 1 {
			violations++
			res.fail("worker busy share %.4f exceeds 1", busy)
		}
		busyCycles += float64(batchCycles)
		busyWall += float64(campaignPar) * float64(b.wall)
		folds += float64(b.folds)
		jWrites += float64(b.journal.writes)
		jBytes += float64(b.journal.bytes)
		jNs += float64(b.journal.ns)
		spans += int(b.journal.writes)
	}
	share := median(shares)
	if share > unaccountedTolerance {
		violations++
		res.fail("%.2f%% of the median traced campaign's wall time is outside its spans (tolerance %.0f%%)",
			100*share, 100*unaccountedTolerance)
	}
	res.spread("unaccounted_share_by_campaign", shares)
	res.notes["unaccounted_share_worst_campaign"] = slices.Max(shares)
	res.notes["unaccounted_share_summed"] = unaccounted / wallSum
	if violations > 0 {
		res.fail("%d reconciliation violations", violations)
	}
	v := res.values
	v["core.golden_s"] = median(golden)
	v["apps.build_s"] = median(builds)
	v["apps.warmup_s"] = median(warmups)
	v["simmem.snapshot_ms"] = median(snaps)
	v["simmem.restore_us_p50"] = restores.percentile(50) / 1e3
	v["simmem.restore_us_p99"] = restores.percentile(99) / 1e3
	v["simmem.restore_dirty_pages"] = dirty / n
	v["apps.serve_us_p50"] = serves.percentile(50) / 1e3
	v["apps.serve_us_p99"] = serves.percentile(99) / 1e3
	v["apps.requests_per_trial"] = requests / n
	v["simmem.loads_per_unit"] = loads / n
	v["simmem.stores_per_unit"] = stores / n
	v["simmem.fastpath_load_ratio"] = ratio(fast, loads)
	v["simmem.tainted_words_per_trial"] = tainted / n
	v["ecc.decode_calls_per_trial"] = decodes / n
	v["ecc.encode_calls_per_trial"] = encodes / n
	v["core.cycle_us_mean"] = cycleSum / closedN / 1e3
	v["core.restore_share"] = ratio(restoreSum, cycleSum)
	v["core.serve_share"] = ratio(serveSum, cycleSum)
	v["core.engine_share"] = ratio(engineSum, cycleSum)
	v["core.engine_us_p50"] = engines.percentile(50) / 1e3
	v["core.engine_us_mean"] = engineSum / closedN / 1e3
	v["core.journal_write_us"] = ratio(jNs, jWrites) / 1e3
	v["core.journal_bytes_per_trial"] = jBytes / n
	v["obsv.folds_per_trial"] = folds / n
	v["core.worker_busy_share"] = ratio(busyCycles, busyWall)
	v["trace.bookkeeping_us_per_unit"] = bookSum / n / 1e3
	v["trace.spans"] = float64(spans)
	v["traced.latency_samples"] = closedN
	v["reconcile.violations"] = float64(violations)
	v["reconcile.unaccounted_share"] = share
	res.zero("client.rtt_us_p50", "client.rtt_us_p99", "client.rtt_us_p999", "client.rtt_us_mean",
		"kvnode.conn_service_us_p50", "kvnode.conn_service_us_p99", "kvnode.conn_service_us_mean",
		"kvnode.dispatch_us_mean", "net.transit_us_p50", "net.transit_us_mean", "kvnode.writes_per_op")
}

// maxDumpRows bounds a span dump; the metrics use every span in memory.
const maxDumpRows = 200_000

// dumpCampaignSpans writes the traced batches' spans as tab-separated
// rows: batch, worker, span, trial, start and end in ns since the batch
// began, and the requests a row covers. A serve row sums the trial's
// Serve spans, laid end to end after its restore.
func dumpCampaignSpans(w campaignWorkload, runs []*batchOut, opts options) error {
	f, err := os.Create(filepath.Join(opts.outDir, "spans-"+w.name+".tsv"))
	if err != nil {
		return fmt.Errorf("creating span dump: %w", err)
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "batch\tworker\tspan\ttrial\tstart_ns\tend_ns\tcount")
	rows := 0
	row := func(batch, worker int, span string, trial int, start, end int64, count int) {
		if rows < maxDumpRows {
			fmt.Fprintf(bw, "%d\t%d\t%s\t%d\t%d\t%d\t%d\n", batch, worker, span, trial, start, end, count)
		}
		rows++
	}
	for k, b := range runs {
		r := b.rec
		row(k, -1, "campaign", -1, 0, b.wall, campaignTrials)
		row(k, -1, "golden", -1, r.goldenStart, r.goldenEnd, 1)
		for wi, a := range r.apps {
			row(k, wi, "build", -1, a.buildStart, a.buildEnd, 1)
			if a.warmServes > 0 {
				row(k, wi, "warmup", -1, a.warmStart, a.warmEnd, a.warmServes)
			}
			row(k, wi, "snapshot", -1, a.snapStart, a.snapEnd, 1)
			for ti, t := range a.trials {
				end := t.end
				if !t.closed() {
					end = a.last
				}
				restored := t.start + t.book + t.restore
				row(k, wi, "cycle", ti, t.start, end, 1)
				row(k, wi, "restore", ti, t.start+t.book, restored, 1)
				row(k, wi, "serve", ti, restored, restored+t.serve, t.serves)
			}
		}
	}
	if rows > maxDumpRows {
		fmt.Fprintf(bw, "# truncated: %d of %d rows written\n", maxDumpRows, rows)
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("writing span dump: %w", err)
	}
	return f.Close()
}
