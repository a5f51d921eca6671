package core

import (
	"fmt"
	"sync"

	"cclbtree/internal/obs"
	"cclbtree/internal/pmem"
)

// lockRank is the one declared acquisition order of the tree's classed
// locks, outermost first:
//
//	stw → workersMu → {gcMu, inner.mu, chunkdir.mu}
//
// stw is the naive collector's stop-the-world lock: foreground ops hold
// its read side for their whole call, and a naive round holds its write
// side while it takes workersMu to reclaim logs, so nothing may wait on
// stw while holding workersMu. The three innermost classes share a
// rank: none of them is ever taken while another (or itself) is held.
var lockRank = [obs.NumLockClasses]int{
	obs.LockSTW:      0,
	obs.LockWorkers:  1,
	obs.LockGC:       2,
	obs.LockInner:    2,
	obs.LockChunkDir: 2,
}

// classedLock is one of the tree's declared locks: Tree.stw,
// Tree.workersMu, Tree.gcMu, innerTree.mu and chunkDir.mu. Every
// acquisition runs the contention profiler's bracket, and on a
// StrictPersist pool it first checks the rank order: taking a class
// while the calling goroutine holds one of equal or higher rank panics,
// naming both, rather than waiting for the schedule that closes the
// cycle (under the first lock a quiet process takes, the panic comes
// at that lock's release; see heldLocks). A read hold counts as held.
// Outside strict mode the check is one predictable branch. Callers
// pair each acquire with its release through the token:
//
//	defer l.unlock(l.lock())
type classedLock struct {
	mu     sync.RWMutex
	class  obs.LockClass
	prof   *obs.LockProfiler
	strict bool
}

// lockToken carries one acquisition to its release: the profiler's
// sample and, in strict mode, the holding goroutine.
type lockToken struct {
	prof obs.LockToken
	g    int64
}

func (l *classedLock) lock() lockToken {
	tok := l.pre()
	l.mu.Lock()
	tok.prof = l.prof.Acquired(l.class, tok.prof)
	return tok
}

func (l *classedLock) unlock(tok lockToken) {
	l.mu.Unlock()
	l.post(tok)
}

func (l *classedLock) rlock() lockToken {
	tok := l.pre()
	l.mu.RLock()
	tok.prof = l.prof.Acquired(l.class, tok.prof)
	return tok
}

func (l *classedLock) runlock(tok lockToken) {
	l.mu.RUnlock()
	l.post(tok)
}

// pre runs before the blocking call, so an inversion panics rather
// than waits.
func (l *classedLock) pre() lockToken {
	tok := lockToken{prof: l.prof.Pre(l.class)}
	if l.strict {
		tok.g = heldLocks.acquire(l.class)
	}
	return tok
}

func (l *classedLock) post(tok lockToken) {
	if l.strict {
		heldLocks.release(tok.g, l.class)
	}
	l.prof.Released(l.class, tok.prof)
}

// heldLocks is strict mode's held set: which goroutine holds which
// class. A goroutine id costs a stack walk (pmem.GoID), too much for a
// split's inner.mu, so a hold taken while no classed lock is held
// anywhere stays anonymous: no goroutine can hold anything under it yet.
// An acquire of its rank or below made while it is live is noted, and
// its release names its holder and panics if that goroutine made one of
// the noted acquires. Only the acquires and releases that overlap
// another hold pay for a goroutine id. The set is process-wide because
// holds are per goroutine, whichever tree the lock belongs to.
var heldLocks heldSet

type heldSet struct {
	mu    sync.Mutex
	held  []hold // the holds of known goroutines
	anon  bool   // an anonymous hold of class first is live
	first obs.LockClass
	under []hold // acquires made while it is, ranking no higher
}

type hold struct {
	g int64
	c obs.LockClass
}

// acquire records that the calling goroutine takes c, and returns its
// id, or 0 for the anonymous hold. It panics if the goroutine holds a
// known class that does not rank strictly below c.
func (h *heldSet) acquire(c obs.LockClass) int64 {
	h.mu.Lock()
	if !h.anon && len(h.held) == 0 {
		h.anon, h.first = true, c
		h.mu.Unlock()
		return 0
	}
	h.mu.Unlock()
	g := pmem.GoID()
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, o := range h.held {
		if o.g == g && lockRank[o.c] >= lockRank[c] {
			panic(inversion(g, c, o.c))
		}
	}
	if h.anon && lockRank[h.first] >= lockRank[c] {
		h.under = append(h.under, hold{g, c})
	}
	h.held = append(h.held, hold{g, c})
	return g
}

// release records that goroutine g (0: the anonymous holder) dropped c.
func (h *heldSet) release(g int64, c obs.LockClass) {
	h.mu.Lock()
	defer h.mu.Unlock()
	if g == 0 {
		h.anon = false
		if len(h.under) > 0 {
			me := pmem.GoID()
			for _, o := range h.under {
				if o.g == me {
					h.under = h.under[:0]
					panic(inversion(me, o.c, c))
				}
			}
			h.under = h.under[:0]
		}
		return
	}
	for i, o := range h.held {
		if o == (hold{g, c}) {
			h.held[i] = h.held[len(h.held)-1]
			h.held = h.held[:len(h.held)-1]
			return
		}
	}
}

func inversion(g int64, c, held obs.LockClass) string {
	return fmt.Sprintf("core: StrictPersist: goroutine %d acquires %v while holding %v, which does not rank below it (lockRank)", g, c, held)
}
