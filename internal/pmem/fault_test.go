package pmem

import (
	"errors"
	"sync/atomic"
	"testing"
)

func faultTestPool(mode Mode) *Pool {
	return NewPool(Config{
		Sockets:        1,
		DIMMsPerSocket: 1,
		DeviceBytes:    1 << 20,
		StrictPersist:  true,
		Mode:           mode,
	})
}

// TestTornFlushADR is the torn-line contract: a flush issued but not
// fenced, torn at a word prefix, surfaces after Crash as a partial
// line — the prefix holds the new words, the suffix the old ones.
func TestTornFlushADR(t *testing.T) {
	p := faultTestPool(ADR)
	th := p.NewThread(0)
	base := MakeAddr(0, 4096) // one cacheline, initially zero

	// Establish a persistent "old" image: 8 words of 100+i.
	for i := int64(0); i < 8; i++ {
		th.Store(base.Add(8*i), uint64(100+i))
	}
	th.Persist(base, CachelineSize)

	// Overwrite with "new" words and flush WITHOUT fencing: the
	// write-back is in flight when power fails.
	for i := int64(0); i < 8; i++ {
		th.Store(base.Add(8*i), uint64(200+i))
	}
	// Deliberately unfenced: the tear below models the in-flight write-back.
	th.Flush(base, CachelineSize)

	const prefix = 3
	if torn := th.TearPendingPrefix(prefix); torn != 1 {
		t.Fatalf("TearPendingPrefix tore %d lines, want 1", torn)
	}
	p.Crash()

	th2 := p.NewThread(0)
	for i := int64(0); i < 8; i++ {
		got := th2.Load(base.Add(8 * i))
		want := uint64(100 + i)
		if i < prefix {
			want = uint64(200 + i)
		}
		if got != want {
			t.Fatalf("word %d after torn crash = %d, want %d (prefix %d)", i, got, want, prefix)
		}
	}
}

// TestTornFlushImpossibleEADR: in eADR the caches are inside the
// persistence domain — stores are durable the instant they are globally
// visible, flushes pend nothing, and a "torn" crash state cannot exist:
// the whole line survives.
func TestTornFlushImpossibleEADR(t *testing.T) {
	p := faultTestPool(EADR)
	th := p.NewThread(0)
	base := MakeAddr(0, 4096)

	for i := int64(0); i < 8; i++ {
		th.Store(base.Add(8*i), uint64(100+i))
	}
	th.Persist(base, CachelineSize)
	for i := int64(0); i < 8; i++ {
		th.Store(base.Add(8*i), uint64(200+i))
	}
	// Deliberately unfenced: eADR must have nothing pending to tear.
	th.Flush(base, CachelineSize)

	if torn := th.TearPendingPrefix(3); torn != 0 {
		t.Fatalf("eADR TearPendingPrefix tore %d lines, want 0 (nothing can pend)", torn)
	}
	p.Crash()

	th2 := p.NewThread(0)
	for i := int64(0); i < 8; i++ {
		if got := th2.Load(base.Add(8 * i)); got != uint64(200+i) {
			t.Fatalf("eADR word %d after crash = %d, want %d (everything survives)", i, got, 200+i)
		}
	}
}

// TestTearPendingSeededDeterministic: on a strict pool the same seed
// tears the same lines at the same prefixes.
func TestTearPendingSeededDeterministic(t *testing.T) {
	run := func(seed int64) []uint64 {
		p := faultTestPool(ADR)
		th := p.NewThread(0)
		for line := int64(0); line < 4; line++ {
			base := MakeAddr(0, uint64(4096+line*CachelineSize))
			for i := int64(0); i < 8; i++ {
				th.Store(base.Add(8*i), uint64(1000*line+10+i))
			}
		}
		// Deliberately unfenced: seeded tear point under test.
		th.Flush(MakeAddr(0, 4096), 4*CachelineSize)
		p.TearPending(seed)
		p.Crash()
		th2 := p.NewThread(0)
		out := make([]uint64, 32)
		th2.ReadRange(MakeAddr(0, 4096), out)
		return out
	}
	a, b := run(7), run(7)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("seeded tear not deterministic at word %d: %d vs %d", i, a[i], b[i])
		}
	}
}

// TestPoolTearPendingEveryThread: the pool-wide tear covers the pending
// flushes of every thread in use, each line at its seeded prefix, and
// skips released threads.
func TestPoolTearPendingEveryThread(t *testing.T) {
	p := faultTestPool(ADR)
	threads := []*Thread{p.NewThread(0), p.NewThread(0), p.NewThread(0)}
	for k, th := range threads {
		base := MakeAddr(0, uint64(4096+k*CachelineSize))
		for i := int64(0); i < 8; i++ {
			th.Store(base.Add(8*i), uint64(100*int64(k)+10+i))
		}
		if k == 2 {
			th.Persist(base, CachelineSize)
			th.Release()
			continue
		}
		// Deliberately unfenced: the pool-wide tear under test.
		th.Flush(base, CachelineSize)
	}
	const seed = 11
	want := 0
	for k := range 2 {
		if tornPrefix(seed, 0, uint64(4096/CachelineSize+k)) > 0 {
			want++
		}
	}
	if torn := p.TearPending(seed); torn != want {
		t.Fatalf("Pool.TearPending tore %d lines, want %d", torn, want)
	}
	p.Crash()
	th := p.NewThread(0)
	for k := range 2 {
		base := MakeAddr(0, uint64(4096+k*CachelineSize))
		n := tornPrefix(seed, 0, uint64(4096/CachelineSize+k))
		for i := int64(0); i < 8; i++ {
			w := uint64(0)
			if i < int64(n) {
				w = uint64(100*k + 10 + int(i))
			}
			if got := th.Load(base.Add(8 * i)); got != w {
				t.Fatalf("thread %d word %d after the pool-wide tear = %d, want %d (prefix %d)", k, i, got, w, n)
			}
		}
	}
}

// TestFailWhenScopeTargeted: the predicate fires on the first flush in
// the requested scope, and the trigger is sticky — the next flush on
// any thread panics too.
func TestFailWhenScopeTargeted(t *testing.T) {
	p := faultTestPool(ADR)
	th := p.NewThread(0)
	a := MakeAddr(0, 4096)

	var sites []Scope
	p.FailWhen(func(fp FaultPoint) bool {
		sites = append(sites, fp.Scope)
		return fp.Scope == ScopeWAL
	})

	// Data-scope flush: predicate sees it, does not fire.
	th.Store(a, 1)
	th.Persist(a, 8)

	// WAL-scope flush fires.
	prev := th.PushScope(ScopeWAL)
	th.Store(a.Add(64), 2)
	if !Survive(func() { th.Persist(a.Add(64), 8) }) {
		t.Fatal("WAL-scope flush did not trigger the armed fault")
	}
	th.PopScope(prev)
	if !p.FaultFired() {
		t.Fatal("FaultFired false after trigger")
	}

	// Sticky: an unrelated flush on the same pool dies too.
	th.Store(a.Add(128), 3)
	if !Survive(func() { th.Persist(a.Add(128), 8) }) {
		t.Fatal("post-trigger flush did not panic (sticky contract)")
	}

	// Disarm; flushes work again.
	p.FailWhen(nil)
	th.Store(a.Add(192), 4)
	th.Persist(a.Add(192), 8)

	if len(sites) < 2 || sites[0] != ScopeNone || sites[1] != ScopeWAL {
		t.Fatalf("predicate saw scopes %v, want [data wal ...]", sites)
	}
}

// TestFailWhenFiresInEADR: fault sites exist in eADR even though
// flushes move no data, so sweeps can crash at the same boundaries in
// both modes.
func TestFailWhenFiresInEADR(t *testing.T) {
	p := faultTestPool(EADR)
	th := p.NewThread(0)
	a := MakeAddr(0, 4096)

	base := p.FlushCalls()
	p.FailWhen(func(fp FaultPoint) bool { return fp.Seq == base+2 })
	th.Store(a, 1)
	th.Persist(a, 8) // seq base+1
	// The armed fault kills the persist; eADR keeps the store anyway.
	th.Store(a.Add(64), 2)
	if !Survive(func() { th.Persist(a.Add(64), 8) }) {
		t.Fatal("second flush did not trigger in eADR")
	}
	p.FailWhen(nil)
	// The first store is durable regardless (eADR), the second too —
	// the failure hit before the (free) flush, but the store itself was
	// already inside the persistence domain.
	p.Crash()
	th2 := p.NewThread(0)
	if got := th2.Load(a); got != 1 {
		t.Fatalf("eADR store lost: %d", got)
	}
}

// TestFlushCallsCountsBothModes: FlushCalls advances identically for
// the same program in ADR and eADR.
func TestFlushCallsCountsBothModes(t *testing.T) {
	for _, mode := range []Mode{ADR, EADR} {
		p := faultTestPool(mode)
		th := p.NewThread(0)
		a := MakeAddr(0, 4096)
		for i := int64(0); i < 5; i++ {
			th.Store(a.Add(64*i), uint64(i+1))
			th.Persist(a.Add(64*i), 8)
		}
		if got := p.FlushCalls(); got != 5 {
			t.Fatalf("mode %v: FlushCalls = %d, want 5", mode, got)
		}
	}
}

// TestParallel pins the fan-out's contract: the lowest-numbered error
// wins, and a power failure on any goroutine is re-raised on the caller
// only after every goroutine has returned.
func TestParallel(t *testing.T) {
	errA, errB := errors.New("a"), errors.New("b")
	err := Parallel(4, func(i int) error {
		switch i {
		case 1:
			return errA
		case 3:
			return errB
		}
		return nil
	})
	if err != errA {
		t.Fatalf("Parallel returned %v, want the error of goroutine 1", err)
	}
	var finished atomic.Int32
	died := Survive(func() {
		_ = Parallel(4, func(i int) error {
			if i == 0 {
				panic(PowerFailure{})
			}
			finished.Add(1)
			return nil
		})
	})
	if !died || finished.Load() != 3 {
		t.Fatalf("died %v with %d of 3 survivors finished", died, finished.Load())
	}
}
