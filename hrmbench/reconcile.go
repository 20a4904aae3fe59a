package main

import (
	"math"
	"sort"
)

// Reconciliation checks that the traced spans account for the time they
// claim to. They fail the traced run when the spans overlap, leak out of
// their parent, or leave a share of a campaign's wall time unexplained
// beyond the stated tolerance.

// unaccountedTolerance is the largest share of the median traced
// campaign's wall time that may fall outside its spans (the golden run
// and each worker's span). That gap is the engine's own start-up and
// wind-down: validation, goroutine spawn, the last trial's
// classification and journal record, result assembly. It is checked on
// the median campaign because one campaign of a few tens of
// milliseconds can lose a tenth of its time to a single host preemption
// or GC, while a span the tracer failed to record would leave its gap in
// every campaign.
const unaccountedTolerance = 0.03

// trialSpan is one trial cycle on one campaign worker: from the entry of
// the trial's Reset to the entry of the worker's next Reset, with its
// children summed. Times are nanoseconds since the batch began.
type trialSpan struct {
	start, end int64 // end is 0 while the cycle is open (a worker's last trial)
	restore    int64 // Reset span
	serve      int64 // summed Serve spans
	serves     int
	book       int64 // the tracer's own bookkeeping inside the cycle
	dirty      int   // pages Reset rolled back
	loads      uint64
	stores     uint64
	fastLoads  uint64
	tainted    int
	decodes    int64 // calls to the worker's own counted codecs
	encodes    int64
}

// closed reports whether the cycle has an end (the worker ran another
// trial after it).
func (t trialSpan) closed() bool { return t.end > 0 }

// cycle is the trial's full cycle time.
func (t trialSpan) cycle() int64 { return t.end - t.start }

// engine is the cycle's self time: what is left once restore, serve and
// tracer bookkeeping are taken out (inject, classify, metric fold,
// journal record, dispatch).
func (t trialSpan) engine() int64 { return t.cycle() - t.restore - t.serve - t.book }

// trialViolations counts closed cycles whose children do not fit inside
// them: negative child spans, or children summing past the cycle.
func trialViolations(trials []trialSpan) int {
	bad := 0
	for _, t := range trials {
		if t.restore < 0 || t.serve < 0 || t.book < 0 {
			bad++
			continue
		}
		if t.closed() && t.engine() < 0 {
			bad++
		}
	}
	return bad
}

// span is an interval of one campaign's timeline, in ns.
type span struct{ start, end int64 }

// uncovered returns how much of [0, wall] no span covers.
func uncovered(wall int64, spans []span) int64 {
	sorted := append([]span(nil), spans...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].start < sorted[j].start })
	var covered, reach int64
	for _, s := range sorted {
		start, end := max(s.start, reach, 0), min(s.end, wall)
		if end > start {
			covered += end - start
			reach = end
		}
	}
	return wall - covered
}

// busyShare is the summed cycle time of every worker over par × wall.
// Cycles of one worker tile its timeline, so a share above 1 means
// spans were double-counted.
func busyShare(cycles int64, par int, wall int64) float64 {
	if par <= 0 || wall <= 0 {
		return math.Inf(1)
	}
	return float64(cycles) / (float64(par) * float64(wall))
}

// opSpan is one client request on a connection: from just before the
// request is written to just after its reply line is read.
type opSpan struct{ send, recv int64 }

// svcSpan is the server side of one request on the same connection:
// from the Read that returned the request's first bytes to the entry of
// the Write that carried the reply, with the Write calls it made.
type svcSpan struct {
	start, end int64
	writes     int
}

// opViolations pairs the k-th client request with the k-th server span
// of the same connection and counts the pairs that do not nest: the
// server cannot see a request before it is sent, nor hand back a reply
// after the client has read it. A length mismatch counts every unpaired
// request.
func opViolations(client []opSpan, server []svcSpan) int {
	bad := len(client) - len(server)
	if bad < 0 {
		bad = -bad
	}
	n := min(len(client), len(server))
	for k := 0; k < n; k++ {
		c, s := client[k], server[k]
		if s.start < c.send || s.end > c.recv || s.end < s.start {
			bad++
		}
	}
	return bad
}
