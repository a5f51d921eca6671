package core

import (
	"sync"
	"sync/atomic"

	"cclbtree/internal/pmem"
)

// Epoch-based reclamation for PM leaves.
//
// A merge unlinks a leaf from the persistent chain and the DRAM
// routing, but a lock-free reader that routed to the dead node before
// the unlink may still be probing the leaf's PM words. Freeing the
// leaf immediately would let the allocator hand the address to a
// concurrent split, whose writes would race the reader's probe with no
// seqlock to catch it (the reader validates the *buffer node's*
// version — a recycled PM address belongs to a different node).
//
// The classic fix: retired leaves go to a limbo list stamped with the
// current reclamation epoch; readers pin the epoch they entered at for
// the duration of one Get/Scan; a limbo entry is freed only once every
// pinned reader entered at a later epoch than the entry's stamp, which
// proves no reader can hold a route to it (the unlink happens-before
// the stamp's epoch advance, and a later pin happens-after it).
//
// Readers only ever delay reclamation — they never block writers and
// cannot deadlock; a parked reader just holds its entry cohort in
// limbo until it exits (see TestEpochReaderParked*).

// retiredLeaf is one unlinked-but-not-yet-freed PM leaf.
type retiredLeaf struct {
	addr  pmem.Addr
	epoch uint64
}

// epochManager is the tree's reclamation state. The global epoch
// starts at 1: a zero in a worker's pin slot means "not inside a
// read-side critical section".
type epochManager struct {
	global atomic.Uint64
	mu     sync.Mutex
	limbo  []retiredLeaf
}

func (em *epochManager) init() {
	em.global.Store(1)
}

// epochEnter pins w into the current reclamation epoch. The store/
// re-check loop closes the standard EBR race: if the global moved
// between our load and our store, a concurrent reclaimer may have
// scanned the pin slots without seeing us — re-pinning at the newer
// epoch guarantees any limbo entry it freed was unlinked before our
// (re-)pin, so our traversal cannot reach it.
func (tr *Tree) epochEnter(w *Worker) {
	g := &tr.reclaim.global
	for {
		e := g.Load()
		w.epochSlot.Store(e)
		if g.Load() == e {
			return
		}
	}
}

// epochExit unpins w.
func (tr *Tree) epochExit(w *Worker) {
	w.epochSlot.Store(0)
}

// retireLeaf moves an unlinked leaf to limbo and advances the epoch.
// With no pinned readers the leaf frees immediately (single-threaded
// behavior is identical to a direct Free); otherwise it waits out the
// readers that might still route to it.
func (tr *Tree) retireLeaf(addr pmem.Addr) {
	em := &tr.reclaim
	em.mu.Lock()
	em.limbo = append(em.limbo, retiredLeaf{addr, em.global.Load()})
	em.global.Add(1)
	tr.ctr.epochRetires.Add(1)
	tr.reclaimRetired(false)
	em.mu.Unlock()
}

// advanceEpoch bumps the epoch and reclaims what became safe — called
// by GC rounds so limbo drains even when no further merges happen.
func (tr *Tree) advanceEpoch() {
	em := &tr.reclaim
	em.mu.Lock()
	if len(em.limbo) > 0 {
		em.global.Add(1)
		tr.reclaimRetired(false)
	}
	em.mu.Unlock()
}

// drainEpochs force-frees every limbo entry. Only legal once no reader
// can be active again (Freeze: the tree must not be used afterwards).
func (tr *Tree) drainEpochs() {
	em := &tr.reclaim
	em.mu.Lock()
	tr.reclaimRetired(true)
	em.mu.Unlock()
}

// reclaimRetired frees the limbo entries no pinned reader can still
// route to: those stamped strictly below every nonzero pin slot. The
// caller holds em.mu.
func (tr *Tree) reclaimRetired(force bool) {
	em := &tr.reclaim
	if len(em.limbo) == 0 {
		return
	}
	min := em.global.Load()
	if !force {
		tok := tr.workersMu.rlock()
		for _, wk := range tr.workers {
			if e := wk.epochSlot.Load(); e != 0 && e < min {
				min = e
			}
		}
		tr.workersMu.runlock(tok)
	}
	kept := em.limbo[:0]
	for _, r := range em.limbo {
		if !force && r.epoch >= min {
			kept = append(kept, r)
			continue
		}
		tr.alloc.Free(r.addr, LeafBytes)
		tr.ctr.epochReclaims.Add(1)
	}
	em.limbo = kept
}

// epochLimboLen reports the current limbo depth (tests, inspection).
func (tr *Tree) epochLimboLen() int {
	em := &tr.reclaim
	em.mu.Lock()
	defer em.mu.Unlock()
	return len(em.limbo)
}
