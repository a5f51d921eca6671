package pmem

import (
	"fmt"
	"runtime"
	"sort"
)

// This file implements StrictPersist, the runtime half of the
// persistence-discipline tooling (cmd/persistlint is the static half).
// Strict mode trades a little per-operation overhead for
// panic-with-context on misuse that only shows when the code runs:
//
//   - a Thread used concurrently from two goroutines (Thread is a
//     single-owner handle; sequential hand-off between goroutines is
//     legal and not flagged);
//   - Load/Store/ReadRange/WriteRange at a word-unaligned address
//     (silently truncated to the containing word otherwise, which is
//     never what the caller meant);
//   - a Thread released — or a pool closed — with flushes still
//     pending their Fence (the clwb was issued but never retired);
//   - Pool.Close with cachelines still dirty in the modeled CPU cache
//     outside a declared-volatile region (data that a crash at that
//     point would lose);
//   - a checked section (CheckScope) that returns with a scope it
//     pushed and never popped.
//
// internal/core adds its lock-order check on strict pools, using GoID
// for the held set. All checks are gated on Config.StrictPersist so the
// default-mode hot paths stay branch-cheap.

// GoID returns the current goroutine's id by parsing the first
// runtime.Stack line ("goroutine N [running]:"). It costs a stack walk,
// so only strict-mode checks and panic paths call it.
func GoID() int64 {
	var buf [64]byte
	n := runtime.Stack(buf[:], false)
	const prefix = len("goroutine ")
	var id int64
	for _, c := range buf[prefix:n] {
		if c < '0' || c > '9' {
			break
		}
		id = id*10 + int64(c-'0')
	}
	return id
}

// beginOp/endOp bracket every strict-mode Thread operation. inOp is
// held for the duration of each (non-nested) public operation, so a
// second goroutine entering while it is held is a concurrent-use bug
// and panics. The guard is a single CAS — Threads are single-owner, so
// a correct program never contends on it — which keeps strict mode
// cheap enough to leave on in whole test suites. Sequential hand-off
// of a Thread between goroutines is legal and not flagged.
func (t *Thread) beginOp(op string) {
	if t.released {
		panic(fmt.Sprintf("pmem: StrictPersist: %s on a released Thread (socket %d)", op, t.socket))
	}
	if !t.inOp.CompareAndSwap(0, 1) {
		panic(fmt.Sprintf(
			"pmem: StrictPersist: Thread (socket %d) used concurrently: goroutine %d entered %s while another operation was in flight",
			t.socket, GoID(), op))
	}
}

func (t *Thread) endOp() {
	t.inOp.Store(0)
}

// checkAligned panics on a word-unaligned address: the Load/Store API
// is 8-byte-word granular and would silently truncate the offset.
func (t *Thread) checkAligned(a Addr, op string) {
	if a.Offset()%WordSize != 0 {
		panic(fmt.Sprintf("pmem: StrictPersist: %s at unaligned address %v (offset %% %d = %d)",
			op, a, WordSize, a.Offset()%WordSize))
	}
}

// Release declares the thread's work complete. In strict mode it
// panics if flushes are still awaiting a Fence, and marks the thread so
// any further use panics. A no-op outside strict mode.
func (t *Thread) Release() {
	if !t.strict {
		return
	}
	t.beginOp("Release")
	defer t.endOp()
	if n := len(t.pending); n > 0 {
		panic(fmt.Sprintf(
			"pmem: StrictPersist: Thread (socket %d) released with %d pending flush(es) awaiting Fence; first: %s",
			t.socket, n, t.pendingDesc(1)))
	}
	t.released = true
}

// CheckScope panics, in strict mode, when the thread's scope is not
// entered, the one a checked section began at: the section pushed a
// scope and never popped it, so every later byte on the thread would be
// charged to the wrong component. Sections defer it at entry:
//
//	defer t.CheckScope(t.Scope())
//
// A no-op outside strict mode, and once an armed fault has fired: a
// section that a power failure ends owes nothing.
func (t *Thread) CheckScope(entered Scope) {
	if t.strict && t.scope != entered && !t.pool.FaultFired() {
		panic(fmt.Sprintf("pmem: StrictPersist: Thread (socket %d) leaves a checked section at scope %v, entered at %v: a PushScope was never popped",
			t.socket, t.scope, entered))
	}
}

// pendingDesc renders up to max pending-flush targets for panic text.
func (t *Thread) pendingDesc(max int) string {
	s := ""
	for i, pf := range t.pending {
		if i >= max {
			s += fmt.Sprintf(" (+%d more)", len(t.pending)-max)
			break
		}
		if i > 0 {
			s += ", "
		}
		s += MakeAddr(pf.dev.id, pf.line*CachelineSize).String()
	}
	return s
}

// volRange is one declared-volatile byte region: data there is scratch
// by contract and may be dirty at Pool.Close.
type volRange struct {
	socket   int
	from, to uint64 // byte offsets, [from, to)
}

// DeclareVolatile registers [a, a+n) as scratch space that is allowed
// to be dirty (unflushed) when the pool closes: staging buffers,
// DRAM-substitute regions, and other data recovery never reads.
// Regions should be cacheline-aligned; a partially covered dirty line
// still fails the Close check.
func (p *Pool) DeclareVolatile(a Addr, n int64) {
	if n <= 0 {
		return
	}
	p.strictMu.Lock()
	p.volatiles = append(p.volatiles, volRange{socket: a.Socket(), from: a.Offset(), to: a.Offset() + uint64(n)})
	p.strictMu.Unlock()
}

func (p *Pool) lineVolatile(socket int, line uint64) bool {
	from, to := line*CachelineSize, (line+1)*CachelineSize
	for _, v := range p.volatiles {
		if v.socket == socket && v.from <= from && to <= v.to {
			return true
		}
	}
	return false
}

// Close verifies end-of-life persistence invariants. In strict mode it
// panics if any registered Thread still has flushes awaiting a Fence,
// or if any cacheline outside a declared-volatile region is dirty in
// the modeled CPU cache — both mean data the program believes durable
// would not survive a crash. Outside strict mode Close is a no-op, so
// callers can close unconditionally. Closing twice is harmless.
func (p *Pool) Close() {
	if !p.cfg.StrictPersist {
		return
	}
	p.strictMu.Lock()
	defer p.strictMu.Unlock()
	if p.closed {
		return
	}
	p.closed = true
	for _, t := range p.strictThreads {
		if t.released {
			continue
		}
		if n := len(t.pending); n > 0 {
			panic(fmt.Sprintf(
				"pmem: StrictPersist: Pool.Close with Thread (socket %d) holding %d pending flush(es) awaiting Fence; first: %s",
				t.socket, n, t.pendingDesc(1)))
		}
	}
	for _, d := range p.devs {
		if addrs := p.dirtyNonVolatile(d, 4); len(addrs) > 0 {
			panic(fmt.Sprintf(
				"pmem: StrictPersist: Pool.Close with %d+ dirty cacheline(s) outside declared-volatile regions on socket %d; e.g. %v",
				len(addrs), d.id, addrs))
		}
	}
}

// dirtyNonVolatile collects up to max dirty-line addresses on d that no
// declared-volatile region covers, sorted for stable panic text.
func (p *Pool) dirtyNonVolatile(d *device, max int) []Addr {
	var lines []uint64
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		for line := range sh.lines {
			if !p.lineVolatile(d.id, line) {
				lines = append(lines, line)
			}
		}
		sh.mu.Unlock()
	}
	sort.Slice(lines, func(i, j int) bool { return lines[i] < lines[j] })
	if len(lines) > max {
		lines = lines[:max]
	}
	addrs := make([]Addr, len(lines))
	for i, line := range lines {
		addrs[i] = MakeAddr(d.id, line*CachelineSize)
	}
	return addrs
}
