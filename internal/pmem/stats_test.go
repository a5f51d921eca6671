package pmem

import (
	"strings"
	"sync"
	"testing"
)

func TestStatsHelpers(t *testing.T) {
	s := Stats{
		MediaWriteBytes:  4096,
		XPBufWriteBytes:  2048,
		UserWriteBytes:   1024,
		XPBufWriteHits:   30,
		XPBufWriteMisses: 10,
	}
	if got := s.XBIAmplification(); got != 4.0 {
		t.Fatalf("XBIAmplification = %v, want 4", got)
	}
	if got := s.CLIAmplification(); got != 2.0 {
		t.Fatalf("CLIAmplification = %v, want 2", got)
	}
	if got := s.WriteHitRate(); got != 0.75 {
		t.Fatalf("WriteHitRate = %v, want 0.75", got)
	}
	var zero Stats
	if zero.XBIAmplification() != 0 || zero.CLIAmplification() != 0 || zero.WriteHitRate() != 0 {
		t.Fatal("zero Stats must not divide by zero")
	}
	str := s.String()
	for _, want := range []string{"4.00KiB", "2.00KiB", "1.00KiB", "WA 4.00", "CLI 2.00", "75.0%"} {
		if !strings.Contains(str, want) {
			t.Fatalf("String() = %q, missing %q", str, want)
		}
	}
}

func TestStatsScopeAndTagMaps(t *testing.T) {
	var s Stats
	s.MediaWriteByScope[ScopeWAL] = 512
	s.MediaWriteByScope[ScopeLeafBuf] = 256
	sm := s.ScopeMediaBytes()
	if len(sm) != 2 || sm["wal"] != 512 || sm["leafbuf"] != 256 {
		t.Fatalf("ScopeMediaBytes = %v", sm)
	}
}

func TestSubClamped(t *testing.T) {
	a := Stats{MediaWriteBytes: 100, UserWriteBytes: 10}
	b := Stats{MediaWriteBytes: 300, UserWriteBytes: 4}
	d := a.Sub(b)
	if d.MediaWriteBytes != 0 {
		t.Fatalf("clamped subtraction: got %d, want 0", d.MediaWriteBytes)
	}
	if d.UserWriteBytes != 6 {
		t.Fatalf("normal subtraction: got %d, want 6", d.UserWriteBytes)
	}
}

func TestScopeNames(t *testing.T) {
	names := ScopeNames()
	seen := map[string]bool{}
	for i, n := range names {
		if n == "" || n == "unknown" {
			t.Fatalf("scope %d has no display name", i)
		}
		if seen[n] {
			t.Fatalf("duplicate scope name %q", n)
		}
		seen[n] = true
	}
	if names[ScopeNone] != "data" || names[ScopeWAL] != "wal" {
		t.Fatalf("unexpected names: %v", names)
	}
}

// TestScopeAttributionSums checks the acceptance invariant: at
// quiescence (after DrainXPBuffers), the per-scope media-byte buckets
// sum exactly to MediaWriteBytes, and likewise for the XPBuffer bytes.
func TestScopeAttributionSums(t *testing.T) {
	p := testPool(t, nil)
	th := p.NewThread(0)
	scopes := []Scope{ScopeNone, ScopeLeafBuf, ScopeWAL, ScopeGC, ScopeMeta}
	for i := 0; i < 2000; i++ {
		prev := th.PushScope(scopes[i%len(scopes)])
		a := MakeAddr(0, uint64(i)*XPLineSize%(1<<19))
		th.Store(a, uint64(i))
		th.Persist(a, WordSize)
		th.PopScope(prev)
	}
	p.DrainXPBuffers()
	s := p.Stats()
	var mediaSum, xpbufSum uint64
	for i := range s.MediaWriteByScope {
		mediaSum += s.MediaWriteByScope[i]
		xpbufSum += s.XPBufWriteByScope[i]
	}
	if s.MediaWriteBytes == 0 {
		t.Fatal("workload produced no media writes")
	}
	if mediaSum != s.MediaWriteBytes {
		t.Fatalf("scope media sum %d != MediaWriteBytes %d", mediaSum, s.MediaWriteBytes)
	}
	if xpbufSum != s.XPBufWriteBytes {
		t.Fatalf("scope xpbuf sum %d != XPBufWriteBytes %d", xpbufSum, s.XPBufWriteBytes)
	}
	// At least the scopes that wrote whole XPLines must show up.
	if s.MediaWriteByScope[ScopeWAL] == 0 || s.MediaWriteByScope[ScopeLeafBuf] == 0 {
		t.Fatalf("expected wal and leafbuf media bytes, got %v", s.ScopeMediaBytes())
	}
}

// TestResetStatsConcurrent hammers ResetStats and Stats against live
// writers. Run under -race this validates the documented contract: no
// torn counters, no underflow in any snapshot, and the exact per-scope
// sum invariant restored at quiescence. (The pre-fix implementation
// zeroed counters one by one, so a concurrent snapshot could observe a
// half-reset set and Sub could underflow to ~2^64.)
func TestResetStatsConcurrent(t *testing.T) {
	p := testPool(t, nil)
	const writers = 4
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := p.NewThread(0)
			prev := th.PushScope(Scope(w % int(NumScopes)))
			defer th.PopScope(prev)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				a := MakeAddr(0, uint64(w)<<16|uint64(i*XPLineSize)%(1<<15))
				th.Store(a, uint64(i))
				th.Persist(a, WordSize)
				p.AddUserBytes(WordSize)
			}
		}(w)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			s := p.Stats()
			// Underflow would make deltas astronomically large.
			if s.MediaWriteBytes > 1<<40 || s.XPBufWriteBytes > 1<<40 {
				t.Errorf("snapshot underflow: %+v", s)
				return
			}
			if i%5 == 0 {
				p.ResetStats()
			}
		}
	}()
	<-done
	close(stop)
	wg.Wait()

	// Quiescent now: rebaseline, produce a known workload, and check
	// the exact invariant again.
	p.DrainXPBuffers()
	p.ResetStats()
	th := p.NewThread(0)
	prev := th.PushScope(ScopeGC)
	for i := 0; i < 64; i++ {
		a := MakeAddr(0, 1<<18|uint64(i*XPLineSize))
		th.Store(a, uint64(i))
		th.Persist(a, WordSize)
	}
	th.PopScope(prev)
	p.DrainXPBuffers()
	s := p.Stats()
	var sum uint64
	for _, v := range s.MediaWriteByScope {
		sum += v
	}
	if sum != s.MediaWriteBytes || s.MediaWriteBytes == 0 {
		t.Fatalf("post-reset scope sum %d != MediaWriteBytes %d", sum, s.MediaWriteBytes)
	}
	if s.MediaWriteByScope[ScopeGC] != s.MediaWriteBytes {
		t.Fatalf("all post-reset writes were gc-scoped, got %v", s.ScopeMediaBytes())
	}
}
