// Package dptree reproduces DPTree (Zhou et al., VLDB '19) at the
// granularity the paper's comparison needs: a global DRAM buffer
// absorbs writes (backed by per-thread persistent logs for crash
// consistency), and when the buffer crosses a size threshold it is
// merged wholesale into a persistent base tree. The merge scatters the
// buffered KVs across random base-tree leaves — the global-buffering
// XBI-amplification problem §3.2 contrasts with leaf-node-centric
// buffering — and stalls foreground requests, producing the
// hundreds-of-milliseconds tail latencies of Fig 12.
package dptree

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cclbtree/internal/baselines/fptree"
	"cclbtree/internal/baselines/prim"
	"cclbtree/internal/index"
	"cclbtree/internal/memtree"
	"cclbtree/internal/pmem"
	"cclbtree/internal/wal"
)

// tombstone marks buffered deletions.
const tombstone = uint64(0)

// mergeMinEntries floors the buffer size that triggers a merge; the
// effective threshold grows with the base tree (the paper's DPTree
// sizes its front buffer as a fraction of the base).
const mergeMinEntries = 4096

// Tree is a DPTree instance.
type Tree struct {
	pool *pmem.Pool
	base *fptree.Tree // the persistent base tree

	mu     sync.RWMutex
	buffer memtree.Tree[uint64] // global DRAM buffer pool
	walman *wal.Manager
	merges atomic.Uint64
	// merger is the background merge thread; mergerVT is its virtual
	// clock after the last merge. A thread that triggers a
	// buffer swap while the previous merge is unfinished (mergerVT
	// ahead of its own clock) waits for it — the occasional
	// hundreds-of-ms insert tail of Fig 12 — but steady-state inserts
	// never pay merge time.
	merger   *pmem.Thread
	mergerVT int64
	baseKeys int64 // ≈ entries merged into the base, sizes the buffer
}

// New creates an empty DPTree.
func New(pool *pmem.Pool) (*Tree, error) {
	base, err := fptree.New(pool)
	if err != nil {
		return nil, fmt.Errorf("dptree: %w", err)
	}
	return &Tree{
		pool:   pool,
		base:   base,
		walman: wal.NewManager(base.Alloc, 512<<10),
		merger: pool.NewThread(0),
	}, nil
}

// Factory adapts New to index.Factory.
func Factory() index.Factory { return prim.Factory(New) }

// Name implements index.Index.
func (tr *Tree) Name() string { return "DPTree" }

// Close implements index.Index.
func (tr *Tree) Close() {}

// Merges reports completed buffer merges.
func (tr *Tree) Merges() uint64 { return tr.merges.Load() }

// MemoryUsage implements index.Index: the global buffer is the DRAM
// cost that makes DPTree's footprint the largest of the hybrid indexes
// (Fig 18).
func (tr *Tree) MemoryUsage() (int64, int64) {
	tr.mu.RLock()
	buf := int64(tr.buffer.Len()) * 48
	tr.mu.RUnlock()
	d, p := tr.base.MemoryUsage()
	return buf + d, p
}

// NewHandle implements index.Index.
func (tr *Tree) NewHandle(socket int) index.Handle {
	return &handle{
		tr:  tr,
		t:   tr.pool.NewThread(socket),
		log: wal.NewLog(tr.walman, socket),
		seq: 1,
	}
}

type handle struct {
	tr  *Tree
	t   *pmem.Thread
	log *wal.Log
	seq uint64
}

func (h *handle) Thread() *pmem.Thread { return h.t }

// Upsert implements index.Handle: log, buffer, maybe merge.
func (h *handle) Upsert(key, value uint64) error {
	if key == 0 {
		return fmt.Errorf("dptree: key 0 is reserved")
	}
	return h.write(key, value)
}

// Delete implements index.Handle: buffered tombstone.
func (h *handle) Delete(key uint64) error { return h.write(key, tombstone) }

func (h *handle) write(key, value uint64) error {
	h.seq++
	if _, err := h.log.Append(h.t, wal.Entry{Key: key, Value: value, Timestamp: h.seq}); err != nil {
		return err
	}
	h.tr.mu.Lock()
	h.t.Advance(int64(h.tr.buffer.Depth()) * 6 * h.t.CostDRAM())
	h.tr.buffer.Put(key, value)
	if h.tr.buffer.Len() < max(int(h.tr.baseKeys/16), mergeMinEntries) {
		h.tr.mu.Unlock()
		return nil
	}
	// Swap the buffer and hand it to the background merger. If the
	// previous merge is still running in virtual time, this thread
	// waits for it first — the foreground stall the paper's tail
	// latencies show.
	frozen := h.tr.buffer
	h.tr.buffer = memtree.Tree[uint64]{}
	h.t.SyncClock(h.tr.mergerVT)
	mt := h.tr.merger
	mt.SyncClock(h.t.Now()) // merge starts no earlier than the swap
	kvs := make([]index.KV, 0, frozen.Len())
	frozen.Ascend(0, func(k uint64, v uint64) bool {
		kvs = append(kvs, index.KV{Key: k, Value: v})
		return true
	})
	err := h.tr.base.ApplySorted(mt, kvs)
	h.tr.mergerVT = mt.Now()
	h.tr.baseKeys += int64(len(kvs))
	h.tr.merges.Add(1)
	h.log.Detach() // buffered entries are durable in the base now
	h.tr.mu.Unlock()
	return err
}

// Lookup implements index.Handle: buffer first, then the base tree.
func (h *handle) Lookup(key uint64) (uint64, bool) {
	h.tr.mu.RLock()
	h.t.Advance(int64(h.tr.buffer.Depth()) * 6 * h.t.CostDRAM())
	v, ok := h.tr.buffer.Get(key)
	h.tr.mu.RUnlock()
	if ok {
		return v, v != tombstone
	}
	return h.tr.base.Lookup(h.t, key)
}

// Scan implements index.Handle: merge buffered and base entries.
func (h *handle) Scan(start uint64, max int, out []index.KV) int {
	if max > len(out) {
		max = len(out)
	}
	lim := max + max/4 + 16
	baseOut := make([]index.KV, lim)
	nBase := h.tr.base.Scan(h.t, start, lim, baseOut)

	h.tr.mu.RLock()
	var buf []index.KV
	h.tr.buffer.Ascend(start, func(k uint64, v uint64) bool {
		buf = append(buf, index.KV{Key: k, Value: v})
		return len(buf) < lim
	})
	h.tr.mu.RUnlock()

	// Two-way merge, buffer wins, tombstones drop.
	count, i, j := 0, 0, 0
	for count < max && (i < nBase || j < len(buf)) {
		var kv index.KV
		switch {
		case j >= len(buf) || (i < nBase && baseOut[i].Key < buf[j].Key):
			kv = baseOut[i]
			i++
		case i >= nBase || buf[j].Key < baseOut[i].Key:
			kv = buf[j]
			j++
		default: // equal keys: buffer version wins
			kv = buf[j]
			i++
			j++
		}
		if kv.Value == tombstone {
			continue
		}
		out[count] = kv
		count++
	}
	return count
}
