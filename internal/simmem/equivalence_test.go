// Differential equivalence suite for the clean-page fast path: every
// test here drives two address spaces — one with the fast path on, one
// forced through the reference slow path — with an identical operation
// stream, and requires them to be indistinguishable: same load results,
// same errors, same counters, same ECC/access event sequences, same
// stored bytes, same taint state. This is the contract that makes the
// fast path a pure optimization.
package simmem_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"hrmsim/internal/ecc"
	"hrmsim/internal/simmem"
)

// eqCodecs enumerates the protection techniques under differential test,
// plus the unprotected baseline.
func eqCodecs() []struct {
	name  string
	codec func() simmem.Codec
} {
	return []struct {
		name  string
		codec func() simmem.Codec
	}{
		{"noecc", func() simmem.Codec { return nil }},
		{"parity", func() simmem.Codec { return ecc.NewParity() }},
		{"secded", func() simmem.Codec { return ecc.NewSECDED() }},
		{"dected", func() simmem.Codec { return ecc.NewDECTED() }},
		{"chipkill", func() simmem.Codec { return ecc.NewChipkill() }},
		{"mirror", func() simmem.Codec { return ecc.NewMirror() }},
	}
}

// eqLog records the observable event stream of one space.
type eqLog struct {
	entries []string
}

func (l *eqLog) ObserveAccess(ev simmem.AccessEvent) {
	l.entries = append(l.entries, fmt.Sprintf("access:%v:%#x+%d@%d", ev.Kind, ev.Addr, ev.Len, ev.Time))
}

func (l *eqLog) ObserveECC(ev simmem.ECCEvent) {
	l.entries = append(l.entries, fmt.Sprintf("ecc:%d:%#x@%d", ev.Kind, ev.Addr, ev.Time))
}

// eqSpace is one side of a differential pair.
type eqSpace struct {
	as   *simmem.AddressSpace
	log  *eqLog
	snap *simmem.Snapshot
}

// newEqSpace builds one side: a backed protected region, an unbacked
// protected region, and an unprotected region, matching the application
// layout (private/heap/stack).
func newEqSpace(t *testing.T, codec simmem.Codec, cacheLines int, fast bool) *eqSpace {
	t.Helper()
	as, err := simmem.New(simmem.Config{PageSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	as.SetFastPath(fast)
	specs := []simmem.RegionSpec{
		{Name: "private", Kind: simmem.RegionPrivate, Size: 1024, Backed: true, Codec: codec},
		{Name: "heap", Kind: simmem.RegionHeap, Size: 1024, Codec: codec},
		{Name: "stack", Kind: simmem.RegionStack, Size: 512},
	}
	for _, s := range specs {
		if _, err := as.AddRegion(s); err != nil {
			t.Fatal(err)
		}
	}
	if cacheLines > 0 {
		if err := as.EnableCache(cacheLines); err != nil {
			t.Fatal(err)
		}
	}
	l := &eqLog{}
	as.AddAccessObserver(l)
	as.AddECCObserver(l)
	return &eqSpace{as: as, log: l}
}

// errString renders an error for comparison ("" for nil).
func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// driveEquivalence applies nOps pseudo-random operations from seed to
// both spaces and fails on any observable divergence.
func driveEquivalence(t *testing.T, fastS, slowS *eqSpace, seed int64, nOps int) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	pair := [2]*eqSpace{fastS, slowS}
	regions := fastS.as.Regions()

	pickSpan := func() (simmem.Addr, int) {
		r := regions[rng.Intn(len(regions))]
		n := 1 + rng.Intn(48)
		off := rng.Intn(r.Size() - n)
		return r.Base() + simmem.Addr(off), n
	}

	for op := 0; op < nOps; op++ {
		switch rng.Intn(20) {
		case 0, 1, 2, 3, 4, 5, 6: // Load
			addr, n := pickSpan()
			bufs := [2][]byte{make([]byte, n), make([]byte, n)}
			var errs [2]string
			for i, s := range pair {
				errs[i] = errString(s.as.Load(addr, bufs[i]))
			}
			if errs[0] != errs[1] {
				t.Fatalf("op %d: Load(%#x,%d) err fast=%q slow=%q", op, addr, n, errs[0], errs[1])
			}
			if !bytes.Equal(bufs[0], bufs[1]) {
				t.Fatalf("op %d: Load(%#x,%d) fast=%x slow=%x", op, addr, n, bufs[0], bufs[1])
			}
		case 7, 8, 9, 10, 11, 12: // Store
			addr, n := pickSpan()
			data := make([]byte, n)
			rng.Read(data)
			var errs [2]string
			for i, s := range pair {
				errs[i] = errString(s.as.Store(addr, data))
			}
			if errs[0] != errs[1] {
				t.Fatalf("op %d: Store(%#x,%d) err fast=%q slow=%q", op, addr, n, errs[0], errs[1])
			}
		case 13: // FlipBit (soft error)
			addr, _ := pickSpan()
			bit := rng.Intn(8)
			for _, s := range pair {
				if err := s.as.FlipBit(addr, bit); err != nil {
					t.Fatalf("op %d: FlipBit: %v", op, err)
				}
			}
		case 14: // FlipCheckBit (soft error in check storage)
			r := regions[rng.Intn(2)] // protected regions only
			if r.Codec() == nil {
				continue
			}
			addr := r.Base() + simmem.Addr(rng.Intn(r.Size()))
			bit := rng.Intn(r.Codec().CheckBytes() * 8)
			for _, s := range pair {
				if err := s.as.FlipCheckBit(addr, bit); err != nil {
					t.Fatalf("op %d: FlipCheckBit: %v", op, err)
				}
			}
		case 15: // StickBit (hard error)
			addr, _ := pickSpan()
			bit, val := rng.Intn(8), rng.Intn(2)
			for _, s := range pair {
				if err := s.as.StickBit(addr, bit, val); err != nil {
					t.Fatalf("op %d: StickBit: %v", op, err)
				}
			}
		case 16: // ScrubPage
			ri := rng.Intn(len(regions))
			pi := rng.Intn(regions[ri].PageCount())
			wb := rng.Intn(2) == 0
			var res [2]string
			for i, s := range pair {
				c, u, err := s.as.Regions()[ri].ScrubPage(pi, wb)
				res[i] = fmt.Sprintf("%d/%d/%s", c, u, errString(err))
			}
			if res[0] != res[1] {
				t.Fatalf("op %d: ScrubPage(%d,%d,%v) fast=%s slow=%s", op, ri, pi, wb, res[0], res[1])
			}
		case 17: // ReplaceFrame / FlushPage / RestoreWord on the backed region
			ri := 0
			r := regions[ri]
			pi := rng.Intn(r.PageCount())
			switch rng.Intn(3) {
			case 0:
				for _, s := range pair {
					if err := s.as.Regions()[ri].ReplaceFrame(pi); err != nil {
						t.Fatalf("op %d: ReplaceFrame: %v", op, err)
					}
				}
			case 1:
				for _, s := range pair {
					if err := s.as.Regions()[ri].FlushPage(pi); err != nil {
						t.Fatalf("op %d: FlushPage: %v", op, err)
					}
				}
			case 2:
				addr := r.Base() + simmem.Addr(rng.Intn(r.Size()))
				var errs [2]string
				for i, s := range pair {
					errs[i] = errString(s.as.Regions()[ri].RestoreWord(addr))
				}
				if errs[0] != errs[1] {
					t.Fatalf("op %d: RestoreWord err fast=%q slow=%q", op, errs[0], errs[1])
				}
			}
		case 18: // Snapshot
			for _, s := range pair {
				s.snap = s.as.Snapshot()
			}
		case 19: // Restore (when a snapshot is armed)
			if fastS.snap == nil {
				continue
			}
			var res [2]string
			for i, s := range pair {
				n, err := s.snap.Restore()
				res[i] = fmt.Sprintf("%d/%s", n, errString(err))
			}
			if res[0] != res[1] {
				t.Fatalf("op %d: Restore fast=%s slow=%s", op, res[0], res[1])
			}
		}
	}

	compareEqSpaces(t, fastS, slowS)
}

// compareEqSpaces checks every observable end state of the pair.
func compareEqSpaces(t *testing.T, fastS, slowS *eqSpace) {
	t.Helper()
	if f, s := fastS.as.Counters(), slowS.as.Counters(); f != s {
		t.Errorf("counters diverged: fast=%+v slow=%+v", f, s)
	}
	fh, fm, fw := fastS.as.CacheStats()
	sh, sm, sw := slowS.as.CacheStats()
	if fh != sh || fm != sm || fw != sw {
		t.Errorf("cache stats diverged: fast=%d/%d/%d slow=%d/%d/%d", fh, fm, fw, sh, sm, sw)
	}
	fp, _ := fastS.as.TaintStats()
	sp, _ := slowS.as.TaintStats()
	if fp != sp {
		t.Errorf("tainted pages diverged: fast=%d slow=%d", fp, sp)
	}
	if f, s := len(fastS.log.entries), len(slowS.log.entries); f != s {
		t.Fatalf("event counts diverged: fast=%d slow=%d", f, s)
	}
	for i := range fastS.log.entries {
		if fastS.log.entries[i] != slowS.log.entries[i] {
			t.Fatalf("event %d diverged: fast=%q slow=%q", i, fastS.log.entries[i], slowS.log.entries[i])
		}
	}
	for ri, fr := range fastS.as.Regions() {
		sr := slowS.as.Regions()[ri]
		fb := make([]byte, fr.Size())
		sb := make([]byte, sr.Size())
		if err := fastS.as.ReadRaw(fr.Base(), fb); err != nil {
			t.Fatalf("ReadRaw fast %q: %v", fr.Name(), err)
		}
		if err := slowS.as.ReadRaw(sr.Base(), sb); err != nil {
			t.Fatalf("ReadRaw slow %q: %v", sr.Name(), err)
		}
		if !bytes.Equal(fb, sb) {
			t.Errorf("stored bytes diverged in region %q", fr.Name())
		}
		for pi := 0; pi < fr.PageCount(); pi++ {
			if fr.CorrectedOnPage(pi) != sr.CorrectedOnPage(pi) || fr.Replacements(pi) != sr.Replacements(pi) {
				t.Errorf("page %d frame counters diverged in region %q", pi, fr.Name())
			}
		}
	}
	// Sanity: the fast space actually exercised the fast path, and the
	// reference space never did.
	if fastS.as.FastPathLoads() == 0 {
		t.Error("fast space never took the fast path; the differential test is vacuous")
	}
	if n := slowS.as.FastPathLoads(); n != 0 {
		t.Errorf("slow space took the fast path %d times; SetFastPath(false) is broken", n)
	}
}

// driveCrossPageSpan corrupts one word adjacent to a page boundary and
// streams span reads sliding across that boundary on both spaces: the
// exact shape where the single-page fast path, the multi-page bulk path,
// and the per-word walk over a partially-tainted page all meet. Bytes,
// errors, and taint state must match at every step.
func driveCrossPageSpan(t *testing.T, fastS, slowS *eqSpace, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed ^ 0x5eed))
	pair := [2]*eqSpace{fastS, slowS}
	regions := fastS.as.Regions()
	r := regions[int(seed&1)] // private (backed) or heap
	const ps = 256            // page size used by newEqSpace

	// Deterministic content across the first two pages.
	data := make([]byte, 2*ps)
	rng.Read(data)
	for _, s := range pair {
		if err := s.as.Store(r.Base(), data); err != nil {
			t.Fatalf("Store: %v", err)
		}
	}
	// Corrupt one word straddling neither page: the last word of page 0.
	addr := r.Base() + simmem.Addr(ps-8+rng.Intn(8))
	bit := rng.Intn(8)
	for _, s := range pair {
		if err := s.as.FlipBit(addr, bit); err != nil {
			t.Fatalf("FlipBit: %v", err)
		}
	}
	// Stream spans sliding across the page-0/page-1 boundary, plus spans
	// fully inside the clean page 1.
	for off := ps - 64; off <= ps+64; off += 16 {
		n := 48
		bufs := [2][]byte{make([]byte, n), make([]byte, n)}
		var errs [2]string
		for i, s := range pair {
			errs[i] = errString(s.as.Load(r.Base()+simmem.Addr(off), bufs[i]))
		}
		if errs[0] != errs[1] {
			t.Fatalf("span @%d: err fast=%q slow=%q", off, errs[0], errs[1])
		}
		if !bytes.Equal(bufs[0], bufs[1]) {
			t.Fatalf("span @%d: fast=%x slow=%x", off, bufs[0], bufs[1])
		}
	}
	fp, fw := fastS.as.TaintStats()
	sp, sw := slowS.as.TaintStats()
	if fp != sp || fw != sw {
		t.Fatalf("taint diverged after span stream: fast=%d/%d slow=%d/%d", fp, fw, sp, sw)
	}
}

// TestPartialTaintSpanAcrossPages runs the cross-page span scenario
// deterministically over the full codec matrix.
func TestPartialTaintSpanAcrossPages(t *testing.T) {
	for _, tc := range eqCodecs() {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			for seed := int64(0); seed < 4; seed++ {
				fastS := newEqSpace(t, tc.codec(), 0, true)
				slowS := newEqSpace(t, tc.codec(), 0, false)
				driveCrossPageSpan(t, fastS, slowS, seed)
				compareEqSpaces(t, fastS, slowS)
			}
		})
	}
}

func TestAccessPathEquivalence(t *testing.T) {
	for _, tc := range eqCodecs() {
		for _, cached := range []struct {
			name  string
			lines int
		}{{"uncached", 0}, {"cached", 8}} {
			t.Run(tc.name+"/"+cached.name, func(t *testing.T) {
				t.Parallel()
				for seed := int64(1); seed <= 4; seed++ {
					fastS := newEqSpace(t, tc.codec(), cached.lines, true)
					slowS := newEqSpace(t, tc.codec(), cached.lines, false)
					driveEquivalence(t, fastS, slowS, seed, 1500)
				}
			})
		}
	}
}

// FuzzAccessPathEquivalence fuzzes the operation stream (via the rng
// seed) across the codec and cache matrix. Every execution opens with the
// cross-page span prologue — one corrupted word next to a page boundary,
// then streamed span reads across it — before the random op stream, so
// the partially-tainted-page walk is exercised on every input, not only
// when the rng happens to produce it.
func FuzzAccessPathEquivalence(f *testing.F) {
	for seed := int64(0); seed < 8; seed++ {
		f.Add(seed, uint8(seed%6), seed%2 == 0)
	}
	// Dedicated corpus seeds for the cross-page prologue over each codec,
	// with and without the cache in front.
	for c := int64(0); c < 6; c++ {
		f.Add(int64(0x9a9e)+c, uint8(c), false)
		f.Add(int64(0x9a9e)+c, uint8(c), true)
	}
	codecs := eqCodecs()
	f.Fuzz(func(t *testing.T, seed int64, codecIdx uint8, cached bool) {
		tc := codecs[int(codecIdx)%len(codecs)]
		lines := 0
		if cached {
			lines = 8
		}
		fastS := newEqSpace(t, tc.codec(), lines, true)
		slowS := newEqSpace(t, tc.codec(), lines, false)
		driveCrossPageSpan(t, fastS, slowS, seed)
		driveEquivalence(t, fastS, slowS, seed, 400)
	})
}
