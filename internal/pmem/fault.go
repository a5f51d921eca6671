package pmem

import "sync/atomic"

// This file implements the fault-injection surface the crash-recovery
// test harnesses drive: predicate-armed power failures (FailWhen —
// crash sweeps arm it on a flush ordinal, the concurrent torture
// harness on a scope, to place crashes inside specific components) and
// torn-XPLine injection (TearPending, which persists only a prefix of
// an in-flight write-back).
//
// The crash model for concurrent programs: a power failure is not a
// single instant on the host — goroutines cannot be stopped
// preemptively — so FailWhen is sticky. The first flush whose
// FaultPoint satisfies the predicate panics with PowerFailure, and from
// then on EVERY flush on every thread panics too. Each goroutine
// therefore dies at its next flush; work it completes in between
// (stores, fences of already-issued flushes) corresponds to operations
// that were concurrent with the failure and happened to land, which the
// durable-prefix oracle in internal/torture accounts for.

// FaultPoint describes one potential power-failure site: a Flush (or
// the flush half of Persist) about to execute. Scope is the same
// attribution the observability layer uses to partition media traffic,
// so a harness can aim crashes at mid-WAL-append, mid-split, or mid-GC
// states by scope alone.
type FaultPoint struct {
	// Seq is the global ordinal of this flush call (1-based,
	// monotonically increasing across all threads; also readable as
	// Pool.FlushCalls).
	Seq int64
	// Socket is the NUMA node of the flushed address.
	Socket int
	// Scope is the flushing thread's attribution scope.
	Scope Scope
	// Line is the first cacheline index covered by the flush.
	Line uint64
}

// FailWhen arms predicate-based power-failure injection: every Flush
// evaluates pred on its FaultPoint, and the first call that returns
// true panics with PowerFailure. The trigger is sticky — after it
// fires, every subsequent flush on any thread panics too (see the
// crash model above) — until FailWhen(nil) disarms it. pred runs on
// the flushing goroutine and must be safe for concurrent calls.
//
// Flushes are evaluated (and counted) in eADR mode too, even though
// they move no data there: a crash harness needs the same trigger
// points in both modes to compare recovered states.
func (p *Pool) FailWhen(pred func(FaultPoint) bool) {
	if pred == nil {
		p.failPred.Store(nil)
		p.failFired.Store(false)
		return
	}
	p.failFired.Store(false)
	p.failPred.Store(&pred)
}

// FaultFired reports whether an armed FailWhen predicate has triggered.
func (p *Pool) FaultFired() bool { return p.failFired.Load() }

// FlushCalls returns the number of Flush/Persist calls issued on the
// pool since creation (both modes; clean-line flushes count). Crash
// sweeps use it to enumerate every fault site deterministically.
func (p *Pool) FlushCalls() int64 { return p.flushSeq.Load() }

// checkFault runs the armed fault trigger for one flush call at a.
// Called from Thread.flush before any write-back happens, in eADR mode
// too, so a triggered failure never persists the line being flushed.
func (t *Thread) checkFault(a Addr) {
	p := t.pool
	seq := p.flushSeq.Add(1)
	predp := p.failPred.Load()
	if predp == nil {
		return
	}
	if p.failFired.Load() {
		panic(PowerFailure{})
	}
	fp := FaultPoint{
		Seq:    seq,
		Socket: a.Socket(),
		Scope:  t.scope,
		Line:   a.Offset() / CachelineSize,
	}
	if (*predp)(fp) {
		p.failFired.Store(true)
		panic(PowerFailure{})
	}
}

// TearPending models torn XPLine write-backs at a power failure: for
// every flush this thread has issued but not yet fenced, a
// pseudo-random prefix of the line's flush-time snapshot (derived
// deterministically from seed and the line address) becomes persistent;
// the rest of the line stays at its previous persistent image. This is
// the 8-byte-atomic, in-store-order drain model: words of one cacheline
// reach the media front to back, and power can fail between any two.
//
// Call it after recovering a PowerFailure panic and before Pool.Crash;
// it returns the number of lines that became partially (or, when the
// random prefix covers the whole line, fully) persistent. In eADR mode
// flushes complete instantly, nothing is ever pending, and tearing is
// impossible by construction — the call is a no-op returning 0.
func (t *Thread) TearPending(seed int64) int {
	if t.strict {
		t.beginOp("TearPending")
		defer t.endOp()
	}
	torn := 0
	for i := range t.pending {
		pf := &t.pending[i]
		k := tornPrefix(seed, uint64(pf.dev.id), pf.line)
		if pf.dev.tearLine(pf.line, &pf.snapshot, k) {
			torn++
		}
	}
	t.pending = t.pending[:0]
	return torn
}

// TearPendingPrefix is TearPending with a fixed prefix length of k
// words (0 ≤ k ≤ 8) applied to every pending line, for tests that need
// a specific tear point rather than a seeded one.
func (t *Thread) TearPendingPrefix(k int) int {
	if t.strict {
		t.beginOp("TearPendingPrefix")
		defer t.endOp()
	}
	torn := 0
	for i := range t.pending {
		pf := &t.pending[i]
		if pf.dev.tearLine(pf.line, &pf.snapshot, k) {
			torn++
		}
	}
	t.pending = t.pending[:0]
	return torn
}

// tornPrefix picks the number of words of a line that drained before
// the failure: a deterministic hash of (seed, device, line) in
// [0, wordsPerLine]. Both endpoints are legal crash states — nothing
// drained, or the whole line made it just before the fence would have.
func tornPrefix(seed int64, dev, line uint64) int {
	x := uint64(seed) ^ dev*0x9e3779b97f4a7c15 ^ line*0xbf58476d1ce4e5b9
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return int(x % uint64(wordsPerLine+1))
}

// tearLine commits the first k words of snapshot into line's persistent
// pre-image, so a subsequent crash restores a half-written line. Lines
// already committed (fenced or evicted — fully persistent) and lines
// without pre-image tracking are left alone.
func (d *device) tearLine(line uint64, snapshot *lineWords, k int) bool {
	if k <= 0 || !d.trackPre {
		return false
	}
	if k > len(snapshot) {
		k = len(snapshot)
	}
	sh := d.shardFor(line)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	e, ok := sh.lines[line]
	if !ok {
		return false
	}
	copy(e.pre[:k], snapshot[:k])
	sh.lines[line] = e
	return true
}

// faultState holds the armed-fault bookkeeping, embedded in Pool.
type faultState struct {
	failPred  atomic.Pointer[func(FaultPoint) bool]
	failFired atomic.Bool
	flushSeq  atomic.Int64
}
