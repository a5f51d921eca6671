// Package lbtree reproduces LB+-Tree (Liu et al., VLDB '20): the
// FPTree layout with two write-path refinements the paper discusses —
// entries placed in the header cacheline when possible so metadata and
// data persist with a single flush (the "one-cacheline" optimization
// that minimizes CLI-amplification), and HTM-style concurrency whose
// transaction aborts under contention are modeled by charging an abort
// penalty on leaf-lock conflicts. Under highly skewed workloads the
// aborts dominate and throughput collapses, reproducing Fig 15a.
//
// It is a prim.Hybrid over the fingerprinted leaf it shares with
// FPTree; what is its own is the HTM abort model, the in-place 8 B
// update and the header-cacheline insert.
package lbtree

import (
	"runtime"
	"sync/atomic"

	"cclbtree/internal/baselines/prim"
	"cclbtree/internal/index"
	"cclbtree/internal/pmem"
	"cclbtree/internal/pmleaf"
)

// htmAbortCost is the virtual-time cost of one aborted hardware
// transaction (wasted speculative work plus abort handling).
const htmAbortCost = 900

// htmMaxAborts caps the modeled retry storm on one transaction.
const htmMaxAborts = 32

// headerLineSlots is how many KV slots share the header cacheline
// (32 B header + 2 × 16 B slots = 64 B).
const headerLineSlots = 2

type leafRef struct {
	addr pmem.Addr
	lock atomic.Uint32 // mutual exclusion for the actual writes
	// lastTick is the global operation tick of the last transaction on
	// this leaf. Two transactions whose ticks are closer than the live
	// thread count are concurrent on the modeled machine (each thread
	// has an op in flight at any instant), so they conflict — a
	// deterministic HTM-abort model that does not depend on how
	// goroutines happen to interleave on the (possibly single-core)
	// simulation host.
	lastTick atomic.Uint64
}

// Tree is an LB+-Tree instance.
type Tree struct {
	*prim.Hybrid[*leafRef]
	aborts  atomic.Uint64
	opTick  atomic.Uint64
	handles atomic.Int64
}

// New creates an empty LB+-Tree.
func New(pool *pmem.Pool) (*Tree, error) {
	hy := prim.NewHybrid[*leafRef](pool, "LB+-Tree", 24)
	head, err := hy.NewLine(pool.NewThread(0), pmleaf.Bytes)
	if err != nil {
		return nil, err
	}
	hy.Dir.Put(0, &leafRef{addr: head})
	return &Tree{Hybrid: hy}, nil
}

// Factory adapts New to index.Factory.
func Factory() index.Factory { return prim.Factory(New) }

// Aborts reports the modeled HTM aborts so far.
func (tr *Tree) Aborts() uint64 { return tr.aborts.Load() }

// NewHandle implements index.Index.
func (tr *Tree) NewHandle(socket int) index.Handle {
	tr.handles.Add(1)
	return prim.Bind(tr, tr.Pool.NewThread(socket))
}

// acquire models an HTM transaction begin on the leaf. With T live
// threads, a leaf whose previous transaction is fewer than T global
// operations old is being accessed concurrently; the expected retry
// storm grows with how hot the leaf is (T/gap), the behaviour that
// collapses LB+-Tree under 0.99-skew workloads (§5.4).
func (tr *Tree) acquire(t *pmem.Thread, ref *leafRef) {
	tick := tr.opTick.Add(1)
	last := ref.lastTick.Swap(tick)
	threads := uint64(tr.handles.Load())
	if threads > 1 && tick-last < threads {
		gap := tick - last
		aborts := min(threads/(gap+1), htmMaxAborts)
		tr.aborts.Add(aborts)
		t.Advance(int64(aborts) * htmAbortCost)
	}
	for !ref.lock.CompareAndSwap(0, 1) {
		tr.aborts.Add(1)
		t.Advance(htmAbortCost)
		runtime.Gosched()
	}
}

// release ends the transaction.
func (ref *leafRef) release() { ref.lock.Store(0) }

// Upsert inserts inside the leaf's transaction, retrying after a split
// under the exclusive lock when the leaf is full.
func (tr *Tree) Upsert(t *pmem.Thread, key, value uint64) error {
	for {
		tr.Mu.RLock()
		ref := tr.Route(t, key)
		tr.acquire(t, ref)
		full := insertLocked(t, ref.addr, key, value)
		ref.release()
		tr.Mu.RUnlock()
		if !full {
			return nil
		}
		// Structural change: retry under the exclusive lock.
		tr.Mu.Lock()
		ref = tr.Route(t, key)
		var img pmleaf.Image
		img.Read(t, ref.addr)
		if img.FreeSlot() < 0 && img.FindKey(key) < 0 {
			sep, right, err := prim.FPSplit(t, tr.Alloc, &img)
			if err != nil {
				tr.Mu.Unlock()
				return err
			}
			tr.Dir.Put(sep, &leafRef{addr: right})
		}
		tr.Mu.Unlock()
	}
}

// insertLocked performs the single-leaf insert. It reports that the
// leaf is full and a split is required.
func insertLocked(t *pmem.Thread, leaf pmem.Addr, key, value uint64) bool {
	var img pmleaf.Image
	img.Read(t, leaf)
	if i := img.FindKey(key); i >= 0 {
		// In-place 8 B value update: one flush.
		a := pmleaf.SlotAddr(leaf, i).Add(8)
		t.Store(a, value)
		t.Persist(a, 8)
		return false
	}
	j := img.FreeSlot()
	if j < 0 {
		return true
	}
	img.SetKV(j, key, value)
	img.SetFP(j, pmleaf.FP(key))
	img.SetMeta(pmleaf.PackMeta(img.Bitmap()|1<<uint(j), img.Next()))
	if j < headerLineSlots {
		// Entry and header share the first cacheline: one flush
		// persists both (the LB+-Tree headline trick).
		for wd := 0; wd < pmleaf.SlotWord(headerLineSlots); wd++ {
			t.Store(leaf.Add(int64(8*wd)), img.Words[wd])
		}
		t.Persist(leaf, 64)
		return false
	}
	t.Store(pmleaf.SlotAddr(leaf, j), key)
	t.Store(pmleaf.SlotAddr(leaf, j).Add(8), value)
	t.Persist(pmleaf.SlotAddr(leaf, j), 16)
	pmleaf.WriteHeader(t, &img)
	return false
}

// Delete clears the key's bitmap bit inside the leaf's transaction.
func (tr *Tree) Delete(t *pmem.Thread, key uint64) error {
	tr.Mu.RLock()
	defer tr.Mu.RUnlock()
	ref := tr.Route(t, key)
	tr.acquire(t, ref)
	defer ref.release()
	prim.FPDelete(t, ref.addr, key)
	return nil
}

// Lookup is a fingerprint-filtered probe inside a transaction on the
// leaf. Readers go through acquire like writers, so a lookup on a hot
// leaf counts and pays the modeled aborts too.
func (tr *Tree) Lookup(t *pmem.Thread, key uint64) (uint64, bool) {
	tr.Mu.RLock()
	defer tr.Mu.RUnlock()
	ref := tr.Route(t, key)
	tr.acquire(t, ref)
	defer ref.release()
	return prim.FPLookup(t, ref.addr, key)
}

// Scan walks the leaf chain from the start key's leaf.
func (tr *Tree) Scan(t *pmem.Thread, start uint64, max int, out []index.KV) int {
	tr.Mu.RLock()
	defer tr.Mu.RUnlock()
	return prim.FPScan(t, tr.Floor(start).addr, start, max, out)
}
