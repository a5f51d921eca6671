package pmem

import "sync/atomic"

// pendingFlush is one clwb awaiting its sfence: the line and its content
// snapshot at flush time (what becomes persistent when the fence
// retires). The snapshot is carried by value: Thread.pending recycles
// its backing array across fences, so queueing a flush allocates
// nothing, and the snapshot shares storage with no dirty-line entry —
// the line may be committed, and its entry's slot reused, before the
// fence retires.
type pendingFlush struct {
	dev      *device
	line     uint64
	snapshot lineWords
}

// readCacheSize is the per-thread window of recently loaded XPLines
// treated as CPU-cache hits (so re-reading a just-read 256 B leaf, or
// the hot upper levels of a PM-resident inner-node tree, does not
// re-charge PM latency or re-count media reads).
const readCacheSize = 32

// Thread is a per-goroutine access handle: it owns a virtual clock, a
// NUMA binding, the attribution scope, and the set of flushes awaiting a
// fence. Not safe for concurrent use.
type Thread struct {
	pool    *Pool
	socket  int
	scope   Scope
	vt      int64
	pending []pendingFlush

	// flushNS/fenceNS accumulate the virtual time spent inside
	// flush()/fence() (issue cost, XPBuffer stalls, remote-access
	// penalties charged while flushing). The span-attribution layer
	// reads deltas of these to split an operation's latency into its
	// flush and fence segments without hooking every Persist call.
	flushNS int64
	fenceNS int64

	readCache [readCacheSize]uint64 // device-qualified XPLine ids, 0 = empty
	readPos   int

	// Strict-mode state (see strict.go). inOp is 1 while an operation
	// is in flight; a second entry while it is held means two
	// goroutines are using the handle concurrently.
	strict   bool
	released bool
	inOp     atomic.Int32
}

// Socket returns the thread's local NUMA node.
func (t *Thread) Socket() int { return t.socket }

// Now returns the thread's virtual time in nanoseconds.
func (t *Thread) Now() int64 { return t.vt }

// Advance charges ns nanoseconds of computation (DRAM work, etc.) to the
// thread's virtual clock.
func (t *Thread) Advance(ns int64) { t.vt += ns }

// CostDRAM returns the configured per-word DRAM access cost, so
// DRAM-resident structures can charge traversal time consistently.
func (t *Thread) CostDRAM() int64 { return t.pool.cfg.Cost.DRAMAccess }

// Rewind moves the clock back to v (a value previously returned by
// Now). Retry loops use it so a failed optimistic attempt costs one
// modeled conflict penalty instead of accumulating re-traversal time:
// on the simulation host a descheduled lock holder can make peers spin
// for a whole scheduling quantum, which has no counterpart on the
// modeled machine.
func (t *Thread) Rewind(v int64) {
	if v < t.vt {
		t.vt = v
	}
}

// PushScope sets the component-attribution scope (see Scope), returning
// the previous one. Callers restore it with PopScope, typically:
//
//	prev := t.PushScope(pmem.ScopeWAL)
//	defer t.PopScope(prev)
//
// Scope is thread-local state: it travels with the Thread, not the
// goroutine, so a handle handed to a worker keeps attributing by
// whatever the code currently running on it pushed.
func (t *Thread) PushScope(s Scope) Scope {
	old := t.scope
	t.scope = s
	return old
}

// PopScope restores a scope previously returned by PushScope.
func (t *Thread) PopScope(s Scope) { t.scope = s }

// Scope returns the thread's current attribution scope.
func (t *Thread) Scope() Scope { return t.scope }

// SyncClock advances the thread's clock to at least v. Used when worker
// threads rendezvous (e.g. a GC epoch flip) so virtual time stays
// coherent across threads.
func (t *Thread) SyncClock(v int64) {
	if v > t.vt {
		t.vt = v
	}
}

func (t *Thread) dev(a Addr) *device {
	d := t.pool.devs[a.Socket()]
	if a.Socket() != t.socket {
		t.pool.ctr.cur.remoteAccesses.Add(1)
		t.vt += t.pool.cfg.Cost.RemoteAccess
	}
	return d
}

// xpID qualifies an XPLine index with its device for the thread-local
// read cache (+1 so the zero value means "empty").
func xpID(d *device, xp uint64) uint64 {
	return uint64(d.id)<<56 | (xp + 1)
}

func (t *Thread) readCached(id uint64) bool {
	for _, v := range t.readCache {
		if v == id {
			return true
		}
	}
	return false
}

func (t *Thread) noteRead(id uint64) {
	t.readCache[t.readPos] = id
	t.readPos = (t.readPos + 1) % readCacheSize
}

// chargeLoad applies the cost model for loading one cacheline.
func (t *Thread) chargeLoad(d *device, line uint64) {
	c := &t.pool.cfg.Cost
	xp := line / linesPerXPLine
	id := xpID(d, xp)
	if t.readCached(id) {
		t.vt += c.DRAMAccess
		return
	}
	if d.lineDirty(line) { // dirty in CPU cache: cache hit
		t.vt += c.DRAMAccess
		return
	}
	t.noteRead(id)
	hit, stall := d.xpbufAccess(t.pool, t, line, false)
	if hit {
		t.vt += c.PMReadHit
	} else {
		t.vt += c.PMReadMiss
	}
	t.vt += stall
}

// Load reads the 8-byte word at a (must be word-aligned).
func (t *Thread) Load(a Addr) uint64 {
	if t.strict {
		t.beginOp("Load")
		defer t.endOp()
		t.checkAligned(a, "Load")
	}
	d := t.dev(a)
	idx := a.Offset() / WordSize
	t.chargeLoad(d, idx/wordsPerLine)
	return atomic.LoadUint64(&d.words[idx])
}

// Store writes the 8-byte word at a. The store is volatile under ADR
// until flushed and fenced; under eADR it is immediately persistent.
func (t *Thread) Store(a Addr, v uint64) {
	if t.strict {
		t.beginOp("Store")
		defer t.endOp()
		t.checkAligned(a, "Store")
	}
	d := t.dev(a)
	idx := a.Offset() / WordSize
	if d.markDirty(idx / wordsPerLine) {
		d.evictOne(t.pool, t)
	}
	t.vt += t.pool.cfg.Cost.DRAMAccess
	atomic.StoreUint64(&d.words[idx], v)
}

// ReadRange loads len(dst) consecutive words starting at a, charging one
// cacheline load per line covered.
func (t *Thread) ReadRange(a Addr, dst []uint64) {
	if t.strict {
		t.beginOp("ReadRange")
		defer t.endOp()
		t.checkAligned(a, "ReadRange")
	}
	d := t.dev(a)
	idx := a.Offset() / WordSize
	first := idx / wordsPerLine
	last := (idx + uint64(len(dst)) - 1) / wordsPerLine
	for line := first; line <= last; line++ {
		t.chargeLoad(d, line)
	}
	for i := range dst {
		dst[i] = atomic.LoadUint64(&d.words[idx+uint64(i)])
	}
}

// WriteRange stores len(src) consecutive words starting at a.
func (t *Thread) WriteRange(a Addr, src []uint64) {
	if t.strict {
		t.beginOp("WriteRange")
		defer t.endOp()
		t.checkAligned(a, "WriteRange")
	}
	d := t.dev(a)
	idx := a.Offset() / WordSize
	first := idx / wordsPerLine
	last := (idx + uint64(len(src)) - 1) / wordsPerLine
	evictions := 0
	for line := first; line <= last; line++ {
		if d.markDirty(line) {
			evictions++
		}
	}
	t.vt += t.pool.cfg.Cost.DRAMAccess * int64(last-first+1)
	for i := range src {
		atomic.StoreUint64(&d.words[idx+uint64(i)], src[i])
	}
	for ; evictions > 0; evictions-- {
		d.evictOne(t.pool, t)
	}
}

// Flush issues clwb for every cacheline covering [a, a+n). Clean lines
// are skipped (clwb of an unmodified line writes nothing back). The
// write-back becomes durable at the next Fence.
func (t *Thread) Flush(a Addr, n int) {
	if t.strict {
		t.beginOp("Flush")
		defer t.endOp()
	}
	t.flush(a, n)
}

func (t *Thread) flush(a Addr, n int) {
	v0 := t.vt
	t.flushLines(a, n)
	t.flushNS += t.vt - v0
}

func (t *Thread) flushLines(a Addr, n int) {
	// Fault triggers run (and FlushCalls counts) before the eADR
	// early-return so crash harnesses see identical fault sites in both
	// modes; a triggered failure must never persist the line being
	// flushed.
	t.checkFault(a)
	if t.pool.cfg.Mode == EADR {
		return // no flushing needed; stores are already in the domain
	}
	d := t.dev(a)
	c := &t.pool.cfg.Cost
	idx := a.Offset() / WordSize
	first := idx / wordsPerLine
	last := (idx + uint64(n+WordSize-1)/WordSize - 1) / wordsPerLine
	for line := first; line <= last; line++ {
		t.vt += c.FlushIssue
		if !d.lineDirty(line) {
			continue
		}
		t.pending = append(t.pending, pendingFlush{dev: d, line: line})
		d.readLine(line, &t.pending[len(t.pending)-1].snapshot)
		if _, stall := d.xpbufAccess(t.pool, t, line, true); stall > 0 {
			t.vt += stall
		}
	}
}

// Fence issues sfence: every previously flushed line becomes durable
// with the content it had at flush time.
func (t *Thread) Fence() {
	if t.strict {
		t.beginOp("Fence")
		defer t.endOp()
	}
	t.fence()
}

func (t *Thread) fence() {
	t.vt += t.pool.cfg.Cost.FenceIssue
	t.fenceNS += t.pool.cfg.Cost.FenceIssue
	if len(t.pending) == 0 {
		return
	}
	for i := range t.pending {
		pf := &t.pending[i]
		pf.dev.commitFlush(pf.line, &pf.snapshot)
	}
	t.pending = t.pending[:0]
}

// FlushNS returns the cumulative virtual nanoseconds this thread has
// spent issuing flushes (clwb cost plus any XPBuffer stalls absorbed
// at flush time). Monotone; consumers take deltas.
func (t *Thread) FlushNS() int64 { return t.flushNS }

// FenceNS returns the cumulative virtual nanoseconds spent on ordering
// fences. Monotone; consumers take deltas.
func (t *Thread) FenceNS() int64 { return t.fenceNS }

// Persist is the common Flush+Fence sequence.
func (t *Thread) Persist(a Addr, n int) {
	if t.strict {
		t.beginOp("Persist")
		defer t.endOp()
	}
	t.flush(a, n)
	t.fence()
}

// commitFlush makes snapshot the persistent image of line. If the line
// still matches the snapshot it becomes clean; otherwise (re-dirtied
// after the clwb) the snapshot replaces the pre-image.
func (d *device) commitFlush(line uint64, snapshot *lineWords) {
	sh := d.shardFor(line)
	sh.mu.Lock()
	if _, ok := sh.lines[line]; !ok {
		sh.mu.Unlock()
		return // already committed (fence after eviction or double flush)
	}
	base := line * wordsPerLine
	same := true
	for i, w := range snapshot {
		if atomic.LoadUint64(&d.words[base+uint64(i)]) != w {
			same = false
			break
		}
	}
	if same {
		delete(sh.lines, line)
		d.clearDirtyBit(line)
		sh.mu.Unlock()
		d.dirtyCount.Add(-1)
		return
	}
	if d.trackPre {
		sh.lines[line] = lineEntry{pre: *snapshot}
	}
	sh.mu.Unlock()
}
