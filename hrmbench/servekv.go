package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/hex"
	"fmt"
	"math/rand"
	"net"
	"os"
	"path/filepath"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hrmsim/internal/kvnode"
	"hrmsim/internal/obsv"
	"hrmsim/internal/simmem"
	"hrmsim/internal/trace"
)

// The serve-kv workload: an in-process kvnode.Server over a SEC-DED heap
// on a loopback listener, driven by the benchmark's own closed-loop
// client. Each connection keeps one request outstanding and owns a
// disjoint slice of the keys, so every GET has exactly one right answer:
// the latest version that connection stored.
const (
	kvKeys       = 65536
	kvSmokeKeys  = 4096
	kvConns      = 2
	kvReadShare  = 0.9
	kvZipfS      = 1.1
	kvSetups     = 9 // set-ups per run; setup_s is their median
	kvWarmup     = 300 * time.Millisecond
	kvOpDeadline = 10 * time.Second // a reply slower than this is a timeout
)

// kvServer is one running node and its listener.
type kvServer struct {
	srv    *kvnode.Server
	addr   string
	tl     *tracingListener // nil unless the run is traced
	cancel context.CancelFunc
	done   chan error
}

// startKV builds a node, starts serving and completes one GET over a
// probe connection. The returned duration is the set-up time: New,
// listen, and the first successful op.
func startKV(keys int, seed int64, traced bool) (*kvServer, time.Duration, error) {
	start := time.Now()
	srv, err := kvnode.New(kvnode.Config{Keys: keys, ECC: "secded", Seed: seed, Registry: obsv.NewRegistry()})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, 0, fmt.Errorf("listening: %w", err)
	}
	k := &kvServer{srv: srv, addr: ln.Addr().String(), done: make(chan error, 1)}
	var l net.Listener = ln
	if traced {
		k.tl = &tracingListener{Listener: ln}
		l = k.tl
	}
	ctx, cancel := context.WithCancel(context.Background())
	k.cancel = cancel
	go func() { k.done <- srv.Serve(ctx, l) }()

	// On a failed probe the node is stopped and the probe's error is the
	// one reported.
	probe, err := net.Dial("tcp", k.addr)
	if err != nil {
		_ = k.stop()
		return nil, 0, fmt.Errorf("dialing: %w", err)
	}
	_ = probe.SetDeadline(time.Now().Add(kvOpDeadline))
	want := expectValue(nil, 0, 0, srv.App().ValueSize())
	if _, err := probe.Write([]byte("get 0\n")); err != nil {
		probe.Close()
		_ = k.stop()
		return nil, 0, fmt.Errorf("probe: %w", err)
	}
	got, err := bufio.NewReader(probe).ReadSlice('\n')
	setup := time.Since(start)
	probe.Close()
	if err != nil || !bytes.Equal(got, want) {
		_ = k.stop()
		return nil, 0, fmt.Errorf("probe GET 0: got %q (%v), want %q", got, err, want)
	}
	return k, setup, nil
}

// stop cancels Serve and waits for it to drain and return.
func (k *kvServer) stop() error {
	k.cancel()
	return <-k.done
}

// gateCounters reads the node's memory counters under its gate.
func (k *kvServer) gateCounters() (simmem.Counters, uint64) {
	as := k.srv.Space()
	as.Acquire()
	defer as.Release()
	return as.Counters(), as.FastPathLoads()
}

// dispatch reads the node's own per-op wall-time histogram.
func (k *kvServer) dispatch() (count int64, sumUs float64) {
	h := k.srv.Registry().Histogram("kvserve_op_wall_us", nil)
	return h.Count(), h.Sum()
}

// tracingListener wraps the node's listener; connections accepted while
// on is set are traced.
type tracingListener struct {
	net.Listener
	on    atomic.Bool
	epoch time.Time // set before on

	mu    sync.Mutex
	conns []*tracingConn
}

func (l *tracingListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil || !l.on.Load() {
		return c, err
	}
	tc := &tracingConn{Conn: c, epoch: l.epoch}
	l.mu.Lock()
	l.conns = append(l.conns, tc)
	l.mu.Unlock()
	return tc, nil
}

// tracingConn times the server side of each request: from the Read
// that returns its first bytes to the entry of the Write that carries
// the reply. kvnode reads and writes a connection from one goroutine,
// so the conn needs no lock; its spans are read after Serve returns.
type tracingConn struct {
	net.Conn
	epoch time.Time
	busy  bool // a request has arrived and not been answered
	spans []svcSpan
}

func (c *tracingConn) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 && !c.busy {
		c.busy = true
		c.spans = append(c.spans, svcSpan{start: int64(time.Since(c.epoch))})
	}
	return n, err
}

func (c *tracingConn) Write(p []byte) (int, error) {
	if k := len(c.spans); k > 0 {
		s := &c.spans[k-1]
		if s.writes == 0 {
			s.end = int64(time.Since(c.epoch))
		}
		s.writes++
		c.busy = false
	}
	return c.Conn.Write(p)
}

// kvClient is one closed-loop connection's request stream. Its state
// persists across phases so versions stay known.
type kvClient struct {
	id       int
	rng      *rand.Rand
	zipf     *rand.Zipf
	versions []uint32 // latest version stored per owned key rank
	valSize  int
}

func newKVClient(id int, keys int, seed int64, valSize int) *kvClient {
	rng := rand.New(rand.NewSource(seed*7919 + int64(id)))
	owned := keys / kvConns
	return &kvClient{
		id:       id,
		rng:      rng,
		zipf:     rand.NewZipf(rng, kvZipfS, 1, uint64(owned-1)),
		versions: make([]uint32, owned),
		valSize:  valSize,
	}
}

// kvWindow is the length of the windows serve-kv's end-to-end figures
// are taken over; each figure is the median window's.
const kvWindow = time.Second

// connOut is what one connection measured in a phase.
type connOut struct {
	local   string
	ops     int64
	failed  int64
	wrong   int64
	first   string    // the first wrong reply
	windows []latHist // round trips (ns) by the kvWindow they ended in
	rttSum  int64     // summed round trips, ns
	spans   []opSpan  // traced only
	err     error     // transport error or timeout that ended the stream
}

// expectValue appends the exact reply a GET of key at version must get.
func expectValue(dst []byte, key uint64, version uint32, size int) []byte {
	dst = append(dst, "VALUE "...)
	dst = strconv.AppendUint(dst, uint64(version), 10)
	dst = append(dst, ' ')
	dst = hex.AppendEncode(dst, trace.ValueFor(key, version, size))
	return append(dst, '\n')
}

// run drives one connection from start until the deadline passes, one
// request outstanding. Latency is timed from just before the request is
// written to just after its reply line is read.
func (c *kvClient) run(conn net.Conn, start, until, epoch time.Time, traced bool, out *connOut) {
	out.local = conn.LocalAddr().String()
	_ = conn.SetDeadline(until.Add(kvOpDeadline))
	br := bufio.NewReader(conn)
	var req, want []byte
	for now := time.Now(); now.Before(until); {
		rank := c.zipf.Uint64()
		key := rank*kvConns + uint64(c.id)
		read := c.rng.Float64() < kvReadShare
		version := c.versions[rank]
		req = req[:0]
		if read {
			req = append(req, "get "...)
			req = strconv.AppendUint(req, key, 10)
		} else {
			version++
			req = append(req, "set "...)
			req = strconv.AppendUint(req, key, 10)
			req = append(req, ' ')
			req = strconv.AppendUint(req, uint64(version), 10)
		}
		req = append(req, '\n')

		sent := time.Now()
		_, err := conn.Write(req)
		var reply []byte
		if err == nil {
			reply, err = br.ReadSlice('\n')
		}
		now = time.Now()
		out.ops++
		if err != nil {
			out.failed++
			out.err = err
			return
		}
		rtt := now.Sub(sent)
		w := int(now.Sub(start) / kvWindow)
		for len(out.windows) <= w {
			out.windows = append(out.windows, latHist{})
		}
		out.windows[w].add(float64(rtt))
		out.rttSum += int64(rtt)
		if traced {
			out.spans = append(out.spans, opSpan{send: int64(sent.Sub(epoch)), recv: int64(now.Sub(epoch))})
		}
		switch {
		case bytes.HasPrefix(reply, []byte("SERVER_ERROR")) || bytes.HasPrefix(reply, []byte("CLIENT_ERROR")):
			out.failed++
		case read:
			want = expectValue(want[:0], key, version, c.valSize)
			if !bytes.Equal(reply, want) {
				out.wrong++
				if out.first == "" {
					out.first = fmt.Sprintf("GET %d: got %q, want %q", key, reply, want)
				}
			}
		case string(reply) == "STORED\n":
			c.versions[rank] = version
		default:
			out.wrong++
			if out.first == "" {
				out.first = fmt.Sprintf("SET %d %d: got %q", key, version, reply)
			}
		}
	}
}

// phaseOut is one measured phase: every connection's stream plus the
// node's counters over it.
type phaseOut struct {
	conns               []*connOut
	d                   time.Duration // the phase's requested length
	wall                time.Duration
	alloc               float64
	rt                  runtimeSample
	loads, stores, fast uint64
	dispatchN           int64
	dispatchUs          float64
}

// runPhase runs every client for d on fresh connections.
func runPhase(k *kvServer, clients []*kvClient, d time.Duration, traced bool) (*phaseOut, error) {
	epoch := time.Now()
	if k.tl != nil {
		k.tl.epoch = epoch
		k.tl.on.Store(traced)
	}
	conns := make([]net.Conn, len(clients))
	for i := range conns {
		c, err := net.Dial("tcp", k.addr)
		if err != nil {
			for _, o := range conns[:i] {
				o.Close()
			}
			return nil, fmt.Errorf("dialing: %w", err)
		}
		conns[i] = c
	}
	out := &phaseOut{conns: make([]*connOut, len(clients)), d: d}
	c0, f0 := k.gateCounters()
	n0, s0 := k.dispatch()
	rt0 := readRuntime()
	start := time.Now()
	until := start.Add(d)
	var wg sync.WaitGroup
	for i, cl := range clients {
		out.conns[i] = &connOut{}
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.run(conns[i], start, until, epoch, traced, out.conns[i])
		}()
	}
	wg.Wait()
	out.wall = time.Since(start)
	out.rt = addRuntime(runtimeSample{}, rt0, readRuntime())
	out.alloc = out.rt.allocBytes
	c1, f1 := k.gateCounters()
	n1, s1 := k.dispatch()
	out.loads, out.stores, out.fast = c1.Loads-c0.Loads, c1.Stores-c0.Stores, f1-f0
	out.dispatchN, out.dispatchUs = n1-n0, s1-s0
	for _, c := range conns {
		c.Close()
	}
	return out, nil
}

// totals sums the phase's connections: requests, failures, wrong
// replies, and the round trips of the phase's whole windows, merged and
// by window.
func (p *phaseOut) totals() (ops, failed, wrong int64, all latHist, windows []latHist) {
	windows = make([]latHist, max(int(p.d/kvWindow), 1))
	for _, c := range p.conns {
		ops += c.ops
		failed += c.failed
		wrong += c.wrong
		for w := range c.windows {
			all.merge(&c.windows[w])
			if w < len(windows) {
				windows[w].merge(&c.windows[w])
			}
		}
	}
	return ops, failed, wrong, all, windows
}

// endToEnd derives the phase's user-visible figures: throughput and
// latency percentiles of each whole window, and their medians.
func (p *phaseOut) endToEnd(res *result, prefix string) map[string]float64 {
	ops, _, _, all, windows := p.totals()
	win := min(kvWindow, p.d)
	var tput, p50, p90, p99 []float64
	for w := range windows {
		tput = append(tput, float64(windows[w].n)/win.Seconds())
		p50 = append(p50, windows[w].percentile(50)/1e3)
		p90 = append(p90, windows[w].percentile(90)/1e3)
		p99 = append(p99, windows[w].percentile(99)/1e3)
	}
	res.spread(prefix+"throughput_per_s_by_window", tput)
	res.spread(prefix+"latency_p90_us_by_window", p90)
	res.notes[prefix+"latency_samples"] = all.n
	return map[string]float64{
		"throughput_per_s": median(tput),
		"latency_p50_us":   median(p50),
		"latency_p90_us":   median(p90),
		"latency_p99_us":   median(p99),
		"alloc_b_per_unit": p.alloc / float64(ops),
	}
}

// check records the phase's failed requests and wrong replies.
func (p *phaseOut) check(res *result, name string) {
	ops, failed, _, _, _ := p.totals()
	res.attempted += ops
	res.failed += failed
	for i, c := range p.conns {
		if c.err != nil {
			res.fail("%s phase, connection %d: %v", name, i, c.err)
		}
		if c.wrong > 0 {
			res.fail("%s phase, connection %d: %d wrong, stale or missing replies; first: %s", name, i, c.wrong, c.first)
		}
		if c.ops == 0 {
			res.fail("%s phase, connection %d completed no request", name, i)
		}
	}
	if failed > 0 {
		res.fail("%s phase: %d of %d requests failed", name, failed, ops)
	}
}

// runServeKV runs the serve-kv workload: kvSetups set-ups (the last one
// is kept), a warm-up, then one measured phase, or an untraced and a
// traced half with --trace 1.
func runServeKV(opts options) (*result, error) {
	res := newResult()
	keys := kvKeys
	if opts.smoke {
		keys = kvSmokeKeys
	}
	var k *kvServer
	defer func() {
		if k != nil {
			_ = k.stop() // an error path; the run already failed
		}
	}()
	var setups []float64
	for i := 0; i < kvSetups; i++ {
		if k != nil {
			if err := k.stop(); err != nil {
				return nil, fmt.Errorf("stopping node: %w", err)
			}
			k = nil
			// Return the stopped node's memory before the next set-up,
			// so the measured node's resident set is its own.
			debug.FreeOSMemory()
		}
		var d time.Duration
		var err error
		if k, d, err = startKV(keys, opts.seed, opts.trace); err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
	}
	res.spread("setup_s_by_setup", setups)
	clients := make([]*kvClient, kvConns)
	for i := range clients {
		clients[i] = newKVClient(i, keys, opts.seed, k.srv.App().ValueSize())
	}
	warm, err := runPhase(k, clients, kvWarmup, false)
	if err != nil {
		return nil, err
	}
	warm.check(res, "warm-up")
	total := time.Duration(opts.seconds * float64(time.Second))
	if !opts.trace {
		rss := startRSS(total)
		p, err := runPhase(k, clients, total, false)
		peak := rss.peak()
		if err != nil {
			return nil, err
		}
		p.check(res, "measured")
		for name, v := range p.endToEnd(res, "") {
			res.values[name] = v
		}
		res.values["setup_s"] = median(setups)
		res.values["peak_rss_mb"] = peak
		return res, nil
	}
	plain, err := runPhase(k, clients, total/2, false)
	if err != nil {
		return nil, err
	}
	plain.check(res, "untraced")
	traced, err := runPhase(k, clients, total/2, true)
	if err != nil {
		return nil, err
	}
	traced.check(res, "traced")
	// The server side of the traced connections is complete once Serve
	// has returned.
	err = k.stop()
	serverConns := k.tl.conns
	k = nil
	if err != nil {
		return nil, fmt.Errorf("stopping node: %w", err)
	}
	return res, serveKVLayers(plain, traced, serverConns, res, opts)
}

// serveKVLayers derives the per-layer metrics of the traced phase and
// reconciles its client and server spans.
func serveKVLayers(plain, traced *phaseOut, serverConns []*tracingConn, res *result, opts options) error {
	v := res.values
	pe, te := plain.endToEnd(res, "untraced."), traced.endToEnd(res, "traced.")
	v["traced.throughput_per_s"] = te["throughput_per_s"]
	v["traced.latency_p50_us"] = te["latency_p50_us"]
	v["traced.latency_p90_us"] = te["latency_p90_us"]
	v["traced.latency_p99_us"] = te["latency_p99_us"]
	v["untraced.throughput_per_s"] = pe["throughput_per_s"]
	v["trace.overhead_pct"] = 100 * (pe["throughput_per_s"]/te["throughput_per_s"] - 1)

	ops, _, _, all, _ := traced.totals()
	var rttSum float64
	for _, c := range traced.conns {
		rttSum += float64(c.rttSum)
	}
	v["traced.latency_samples"] = float64(all.n)
	v["client.rtt_us_p50"] = all.percentile(50) / 1e3
	v["client.rtt_us_p99"] = all.percentile(99) / 1e3
	v["client.rtt_us_p999"] = all.percentile(99.9) / 1e3
	v["client.rtt_us_mean"] = rttSum / float64(all.n) / 1e3

	// Pair each client connection with the server side of it.
	byAddr := map[string]*tracingConn{}
	for _, sc := range serverConns {
		byAddr[sc.RemoteAddr().String()] = sc
	}
	var service, transit latHist // ns
	var serviceSum, transitSum, writes float64
	violations := 0
	var pairs []kvPair
	for _, c := range traced.conns {
		sc, ok := byAddr[c.local]
		if !ok {
			violations += len(c.spans)
			res.fail("traced connection %s has no server side", c.local)
			continue
		}
		pairs = append(pairs, kvPair{c, sc})
		violations += opViolations(c.spans, sc.spans)
		for i := 0; i < len(c.spans) && i < len(sc.spans); i++ {
			s, cs := sc.spans[i], c.spans[i]
			svc, tr := float64(s.end-s.start), float64((cs.recv-cs.send)-(s.end-s.start))
			service.add(svc)
			transit.add(tr)
			serviceSum += svc
			transitSum += tr
			writes += float64(s.writes)
		}
	}
	dispatchMean := traced.dispatchUs / float64(traced.dispatchN)
	serviceMean := serviceSum / float64(service.n) / 1e3
	if traced.dispatchN == 0 || dispatchMean > serviceMean {
		violations++
		res.fail("kvnode dispatch mean %.2fus (%d ops) against a connection service mean of %.2fus",
			dispatchMean, traced.dispatchN, serviceMean)
	}
	if violations > 0 {
		res.fail("%d reconciliation violations between client and server spans", violations)
	}
	v["kvnode.conn_service_us_p50"] = service.percentile(50) / 1e3
	v["kvnode.conn_service_us_p99"] = service.percentile(99) / 1e3
	v["kvnode.conn_service_us_mean"] = serviceMean
	v["kvnode.dispatch_us_mean"] = dispatchMean
	v["net.transit_us_p50"] = transit.percentile(50) / 1e3
	v["net.transit_us_mean"] = transitSum / float64(transit.n) / 1e3
	v["kvnode.writes_per_op"] = writes / float64(service.n)
	v["simmem.loads_per_unit"] = float64(traced.loads) / float64(ops)
	v["simmem.stores_per_unit"] = float64(traced.stores) / float64(ops)
	v["simmem.fastpath_load_ratio"] = ratio(float64(traced.fast), float64(traced.loads))
	res.setRuntimeMetrics(traced.rt, float64(ops))
	v["trace.bookkeeping_us_per_unit"] = 0
	v["trace.spans"] = float64(service.n + all.n)
	v["reconcile.violations"] = float64(violations)
	// The share of connection time outside the timed round trips: the
	// client's own work between requests (key draw, formatting, checks).
	v["reconcile.unaccounted_share"] = 1 - rttSum/(float64(len(traced.conns))*float64(traced.wall))
	res.zero("core.golden_s", "apps.build_s", "apps.warmup_s", "simmem.snapshot_ms",
		"simmem.restore_us_p50", "simmem.restore_us_p99", "simmem.restore_dirty_pages",
		"apps.serve_us_p50", "apps.serve_us_p99", "apps.requests_per_trial",
		"simmem.tainted_words_per_trial", "ecc.decode_calls_per_trial", "ecc.encode_calls_per_trial",
		"core.cycle_us_mean", "core.restore_share", "core.serve_share", "core.engine_share",
		"core.engine_us_p50", "core.engine_us_mean", "core.journal_write_us",
		"core.journal_bytes_per_trial", "obsv.folds_per_trial", "core.worker_busy_share")
	return dumpKVSpans(pairs, opts)
}

// kvPair is one traced connection seen from both ends.
type kvPair struct {
	client *connOut
	server *tracingConn
}

// dumpKVSpans writes the traced requests as tab-separated rows:
// connection, request, the client's send and receive and the server's
// service span in ns since the phase began, and the server's writes.
func dumpKVSpans(pairs []kvPair, opts options) error {
	f, err := os.Create(filepath.Join(opts.outDir, "spans-serve-kv.tsv"))
	if err != nil {
		return fmt.Errorf("creating span dump: %w", err)
	}
	bw := bufio.NewWriter(f)
	fmt.Fprintln(bw, "conn\top\tclient_send_ns\tclient_recv_ns\tserver_start_ns\tserver_end_ns\twrites")
	rows := 0
	for ci, p := range pairs {
		for i := 0; i < len(p.client.spans) && i < len(p.server.spans); i++ {
			if rows < maxDumpRows {
				c, s := p.client.spans[i], p.server.spans[i]
				fmt.Fprintf(bw, "%d\t%d\t%d\t%d\t%d\t%d\t%d\n", ci, i, c.send, c.recv, s.start, s.end, s.writes)
			}
			rows++
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
