package pmem

import (
	"strings"
	"sync"
	"testing"
)

func strictPool(t *testing.T) *Pool {
	t.Helper()
	return NewPool(Config{
		Sockets:       1,
		DeviceBytes:   1 << 20,
		StrictPersist: true,
	})
}

// mustPanic runs f and returns the recovered panic text, failing the
// test if f returns normally.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatalf("expected panic containing %q, got none", want)
		}
		msg, ok := r.(string)
		if !ok {
			t.Fatalf("panic value %v (%T), want string", r, r)
		}
		if !strings.Contains(msg, want) {
			t.Fatalf("panic %q does not contain %q", msg, want)
		}
	}()
	f()
}

func TestStrictUnalignedAccessPanics(t *testing.T) {
	p := strictPool(t)
	th := p.NewThread(0)
	//persistlint:ignore PL001 strict mode panics on the unaligned access before any return
	mustPanic(t, "unaligned", func() { th.Store(MakeAddr(0, 4097), 1) })
	mustPanic(t, "unaligned", func() { th.Load(MakeAddr(0, 12)) })
	//persistlint:ignore PL001 strict mode panics on the unaligned access before any return
	mustPanic(t, "unaligned", func() { th.WriteRange(MakeAddr(0, 9), []uint64{1}) })
	mustPanic(t, "unaligned", func() { th.ReadRange(MakeAddr(0, 9), make([]uint64, 1)) })
	// Aligned access still works, and nested strict ops (Persist →
	// Flush → Fence, Store → evictOne) do not self-deadlock.
	th.Store(MakeAddr(0, 4096), 7)
	th.Persist(MakeAddr(0, 4096), 8)
}

func TestStrictNonStrictUnaffected(t *testing.T) {
	p := NewPool(Config{Sockets: 1, DeviceBytes: 1 << 20})
	th := p.NewThread(0)
	// Unaligned offsets truncate silently in default mode (historical
	// behavior, relied on by nothing but kept cheap): no panic.
	//persistlint:ignore PL001 default-mode smoke test: the store truncates silently, durability irrelevant
	th.Store(MakeAddr(0, 4097), 1)
	th.Release() // no-op
	p.Close()    // no-op
}

// TestStrictConcurrentUsePanics misuses a thread across goroutines:
// strict mode polices that at runtime.
func TestStrictConcurrentUsePanics(t *testing.T) {
	p := strictPool(t)
	th := p.NewThread(0)
	// Hold the thread mid-operation from this goroutine, then access it
	// from another: deterministic overlap.
	th.beginOp("test-hold")
	var wg sync.WaitGroup
	wg.Add(1)
	panicked := make(chan string, 1)
	go func() {
		defer wg.Done()
		defer func() {
			if r := recover(); r != nil {
				panicked <- r.(string)
			} else {
				panicked <- ""
			}
		}()
		th.Load(MakeAddr(0, 0))
	}()
	wg.Wait()
	th.endOp()
	if msg := <-panicked; !strings.Contains(msg, "used concurrently") {
		t.Fatalf("cross-goroutine access panicked with %q, want concurrent-use panic", msg)
	}
	// Sequential hand-off between goroutines is legal: the first owner
	// is idle now, so another goroutine may use the thread.
	done := make(chan struct{})
	go func() {
		defer close(done)
		th.Store(MakeAddr(0, 4096), 1)
		th.Persist(MakeAddr(0, 4096), 8)
	}()
	<-done
}

func TestStrictReleaseWithPendingFlushesPanics(t *testing.T) {
	p := strictPool(t)
	th := p.NewThread(0)
	a := MakeAddr(0, 4096)
	th.Store(a, 1)
	th.Flush(a, 8)
	mustPanic(t, "pending flush", func() { th.Release() })
	// Retiring the flush clears the debt; Release then succeeds and
	// further use panics.
	th.Fence()
	th.Release()
	mustPanic(t, "released", func() { th.Load(a) })
}

func TestStrictCloseDirtyLinePanics(t *testing.T) {
	a := MakeAddr(0, 4096)

	p := strictPool(t)
	th := p.NewThread(0)
	//persistlint:ignore PL001 the dirty line is the subject: Close must panic on it
	th.Store(a, 1)
	mustPanic(t, "dirty cacheline", func() { p.Close() })

	// Persisted data closes cleanly.
	p2 := strictPool(t)
	th2 := p2.NewThread(0)
	th2.Store(a, 1)
	th2.Persist(a, 8)
	p2.Close()
	p2.Close() // idempotent

	// A declared-volatile region exempts its lines.
	p3 := strictPool(t)
	th3 := p3.NewThread(0)
	p3.DeclareVolatile(a, CachelineSize)
	//persistlint:ignore PL001 the region is declared volatile; Close exempts its lines
	th3.Store(a, 1)
	p3.Close()
}

func TestStrictClosePendingFlushPanics(t *testing.T) {
	p := strictPool(t)
	th := p.NewThread(0)
	a := MakeAddr(0, 4096)
	th.Store(a, 1)
	//persistlint:ignore PL002 the pending flush is the subject: Close must panic on it
	th.Flush(a, 8)
	mustPanic(t, "pending flush", func() { p.Close() })
}

func TestStrictCrashDiscardsThreads(t *testing.T) {
	p := strictPool(t)
	th := p.NewThread(0)
	a := MakeAddr(0, 4096)
	th.Store(a, 1)
	//persistlint:ignore PL002 pending at crash time: the crash discards it with the caches
	th.Flush(a, 8) // pending at crash time: lost with the caches
	p.Crash()
	// The crash invalidated every outstanding Thread; the pool itself
	// audits clean (rolled back), and stale handles fail loudly.
	p.Close()
	mustPanic(t, "released", func() { th.Load(a) })
	// Post-restart threads work.
	th2 := p.NewThread(0)
	if v := th2.Load(a); v != 0 {
		t.Fatalf("unfenced store survived crash: %d", v)
	}
}

// TestStrictCheckScopeLeak checks the scope-balance assertion: a
// strict thread that leaves a checked section with a scope it pushed
// and never popped panics, naming both scopes; a balanced section, a
// non-strict thread and a section a power failure ended do not.
func TestStrictCheckScopeLeak(t *testing.T) {
	section := func(th *Thread, leak bool) {
		defer th.CheckScope(th.Scope())
		prev := th.PushScope(ScopeGC)
		if !leak {
			th.PopScope(prev)
		}
	}
	p := strictPool(t)
	th := p.NewThread(0)
	section(th, false)
	mustPanic(t, "leaves a checked section at scope gc, entered at data", func() { section(th, true) })

	lax := NewPool(Config{Sockets: 1, DeviceBytes: 1 << 20}).NewThread(0)
	section(lax, true)

	th = p.NewThread(0)
	p.FailWhen(func(FaultPoint) bool { return true })
	if !Survive(func() {
		defer th.CheckScope(th.Scope())
		th.PushScope(ScopeGC)
		th.Persist(MakeAddr(0, 0), 8)
	}) {
		t.Fatal("the armed fault never fired")
	}
}
