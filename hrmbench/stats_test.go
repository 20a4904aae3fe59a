package main

import (
	"math"
	"testing"
)

// The expected values are what Python's statistics.quantiles(xs, n=4)
// returns for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs        []float64
		q1, m, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 5.5, 8.25},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{3, 1}, 0.5, 2, 3.5}, // Python extrapolates past two samples
		{[]float64{2, 4, 4, 5, 7, 9, 10}, 4, 5, 9},
		{[]float64{9}, 9, 9, 9},
	} {
		q1, m, q3 := quartiles(tc.xs)
		if math.Abs(q1-tc.q1) > 1e-12 || math.Abs(m-tc.m) > 1e-12 || math.Abs(q3-tc.q3) > 1e-12 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", tc.xs, q1, m, q3, tc.q1, tc.m, tc.q3)
		}
	}
	if got := median(nil); !math.IsNaN(got) {
		t.Errorf("median of no samples = %v, want NaN", got)
	}
}

func TestQuartilesLeaveInputUnsorted(t *testing.T) {
	xs := []float64{3, 1, 2}
	quartiles(xs)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Errorf("input reordered: %v", xs)
	}
}

func TestTrialViolations(t *testing.T) {
	ok := trialSpan{start: 100, end: 200, restore: 10, serve: 60, book: 5}
	open := trialSpan{start: 200, restore: 10, serve: 60}
	if n := trialViolations([]trialSpan{ok, open}); n != 0 {
		t.Errorf("consistent spans: %d violations", n)
	}
	if got := ok.engine(); got != 25 {
		t.Errorf("engine = %d, want 25", got)
	}
	over := trialSpan{start: 100, end: 150, restore: 10, serve: 60}
	negative := trialSpan{start: 100, end: 200, restore: -1}
	if n := trialViolations([]trialSpan{ok, over, negative}); n != 2 {
		t.Errorf("children past the cycle and a negative span: %d violations, want 2", n)
	}
}

func TestUncovered(t *testing.T) {
	// A golden run 0..100, then overlapping workers 120..880 and
	// 150..900: only 100..120 and 900..1000 are uncovered.
	spans := []span{{0, 100}, {150, 900}, {120, 880}}
	if got := uncovered(1000, spans); got != 120 {
		t.Errorf("uncovered = %d, want 120", got)
	}
	if got := uncovered(1000, []span{{-50, 1200}}); got != 0 {
		t.Errorf("a span past both ends leaves %d uncovered, want 0", got)
	}
	if got := uncovered(500, nil); got != 500 {
		t.Errorf("no spans: %d uncovered, want 500", got)
	}
}

func TestBusyShare(t *testing.T) {
	if got := busyShare(1500, 2, 1000); got != 0.75 {
		t.Errorf("busy share = %v, want 0.75", got)
	}
	if got := busyShare(2100, 2, 1000); got <= 1 {
		t.Errorf("double-counted cycles must exceed 1, got %v", got)
	}
}

func TestOpViolations(t *testing.T) {
	client := []opSpan{{send: 0, recv: 100}, {send: 200, recv: 300}}
	nested := []svcSpan{{start: 10, end: 90, writes: 1}, {start: 250, end: 260, writes: 1}}
	if n := opViolations(client, nested); n != 0 {
		t.Errorf("nested spans: %d violations", n)
	}
	early := []svcSpan{{start: -5, end: 90}, {start: 250, end: 260}}
	late := []svcSpan{{start: 10, end: 90}, {start: 250, end: 301}}
	if n := opViolations(client, early); n != 1 {
		t.Errorf("server start before send: %d violations, want 1", n)
	}
	if n := opViolations(client, late); n != 1 {
		t.Errorf("server reply after receive: %d violations, want 1", n)
	}
	if n := opViolations(client, nested[:1]); n != 1 {
		t.Errorf("an unpaired request: %d violations, want 1", n)
	}
}

func TestLatHistPercentiles(t *testing.T) {
	var h, a, b latHist
	for i := 1; i <= 1000; i++ {
		ns := float64(i) * 1000 // 1 µs .. 1 ms
		h.add(ns)
		if i%2 == 0 {
			a.add(ns)
		} else {
			b.add(ns)
		}
	}
	a.merge(&b)
	for _, tc := range []struct{ p, want float64 }{{50, 500e3}, {99, 990e3}, {99.9, 999e3}, {100, 1000e3}} {
		for name, hist := range map[string]*latHist{"direct": &h, "merged": &a} {
			got := hist.percentile(tc.p)
			if math.Abs(got-tc.want)/tc.want > 0.0026 {
				t.Errorf("%s p%v = %v, want %v within 0.25%%", name, tc.p, got, tc.want)
			}
		}
	}
	var empty latHist
	if !math.IsNaN(empty.percentile(50)) {
		t.Error("empty histogram must give NaN")
	}
}
