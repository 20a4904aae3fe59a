package simmem

import "testing"

// TestWatchFirstTouch pins the first-touch watch: a covering access
// records its kind, non-covering and failed accesses do not, the first
// hit is sticky, and Snapshot.Restore clears the watch.
func TestWatchFirstTouch(t *testing.T) {
	as := newTestAS(t)
	heap := as.RegionByKind(RegionHeap)
	base := heap.Base()
	buf := make([]byte, 10)

	// A failed access touches nothing, even when its range covers a
	// watched byte.
	end := base + Addr(heap.Size())
	as.Watch([]Addr{end - 2})
	if err := as.Store(end-4, buf); err == nil {
		t.Fatal("store running off the region end succeeded")
	}
	if got := as.FirstTouch(); got != 0 {
		t.Fatalf("failed access recorded %v", got)
	}

	snap := as.Snapshot()
	as.Watch([]Addr{base + 200, base + 100})

	if err := as.Load(base+50, buf); err != nil {
		t.Fatal(err)
	}
	if err := as.Load(base+90, buf); err != nil { // ends just before 100
		t.Fatal(err)
	}
	if got := as.FirstTouch(); got != 0 {
		t.Fatalf("non-covering access recorded %v", got)
	}
	if err := as.Store(base+95, buf); err != nil {
		t.Fatal(err)
	}
	if got := as.FirstTouch(); got != Store {
		t.Fatalf("covering store: FirstTouch = %v, want store", got)
	}
	if err := as.Load(base+200, buf[:1]); err != nil {
		t.Fatal(err)
	}
	if got := as.FirstTouch(); got != Store {
		t.Fatalf("first touch overwritten: FirstTouch = %v, want store", got)
	}

	if _, err := snap.Restore(); err != nil {
		t.Fatal(err)
	}
	if as.FirstTouch() != 0 || as.Watched(base+200, 1) {
		t.Fatal("Restore left the watch armed")
	}
	if err := as.Load(base+200, buf[:1]); err != nil {
		t.Fatal(err)
	}
	if got := as.FirstTouch(); got != 0 {
		t.Fatalf("access after Restore recorded %v", got)
	}

	// A hit on the last byte of a span, through the promoted typed API.
	as.Watch([]Addr{base + 207})
	if _, err := as.LoadU64(base + 200); err != nil {
		t.Fatal(err)
	}
	if got := as.FirstTouch(); got != Load {
		t.Fatalf("span-end hit: FirstTouch = %v, want load", got)
	}
	// Re-arming forgets the recorded touch.
	as.Watch([]Addr{base + 207})
	if got := as.FirstTouch(); got != 0 {
		t.Fatalf("re-armed watch kept %v", got)
	}
}

// TestWatchSeesApplicationBytesThroughCache checks that with the cache
// model on, the watch tests the application's byte range, not the
// 64-byte line fill that serves it.
func TestWatchSeesApplicationBytesThroughCache(t *testing.T) {
	as, r := newCachedAS(t, 4)
	as.Watch([]Addr{r.Base() + 40})
	var b [8]byte
	if err := as.Load(r.Base(), b[:]); err != nil { // fills the line holding +40
		t.Fatal(err)
	}
	if got := as.FirstTouch(); got != 0 {
		t.Fatalf("line fill recorded %v", got)
	}
	if err := as.Store(r.Base()+40, b[:1]); err != nil {
		t.Fatal(err)
	}
	if got := as.FirstTouch(); got != Store {
		t.Fatalf("FirstTouch = %v, want store", got)
	}
}

// TestWatchedBounds covers the hit test's edges: an empty watch, a
// zero-length access, and ranges ending exactly at a target.
func TestWatchedBounds(t *testing.T) {
	as := newTestAS(t)
	if as.Watched(0, 1<<20) {
		t.Error("empty watch reported a hit")
	}
	as.Watch([]Addr{300, 100, 100})
	for _, c := range []struct {
		addr Addr
		n    int
		want bool
	}{
		{100, 0, false},
		{90, 10, false},
		{90, 11, true},
		{101, 199, false},
		{101, 200, true},
		{300, 1, true},
		{301, 8, false},
	} {
		if got := as.Watched(c.addr, c.n); got != c.want {
			t.Errorf("Watched(%d, %d) = %v, want %v", c.addr, c.n, got, c.want)
		}
	}
}
