// Package cclhash applies the CCL-BTree techniques to a persistent
// hash table, realizing the paper's §6 generality claim ("in the
// persistent hash tables ... we can introduce a buffer node for one or
// multiple buckets to batch the updates to them, and use the
// write-conservative logging and locality-aware GC to ensure crash
// consistency with reduced write amplification").
//
// Layout: a fixed PM array of 256 B buckets (one XPLine each, same slot
// geometry as the tree's leaves) with overflow chaining; a DRAM buffer
// node in front of every bucket batches Nbatch writes and flushes them
// in one XPLine write; per-thread WALs make buffered writes durable,
// skipping the log for trigger writes; reclamation copies unflushed
// entries to I-logs under a flipping epoch.
//
// Hash buckets have fixed addresses, so recovery routing is exact by
// construction and deleted slots can simply clear their bitmap bits (no
// fence entries needed, unlike the tree).
package cclhash

import (
	"fmt"
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"

	"cclbtree/internal/ordo"
	"cclbtree/internal/pmalloc"
	"cclbtree/internal/pmem"
	"cclbtree/internal/pmleaf"
	"cclbtree/internal/wal"
)

// A bucket is one pmleaf line; its next pointer links the overflow
// chain.
const (
	BucketBytes = pmleaf.Bytes
	BucketSlots = pmleaf.Slots
)

// Options configures the table.
type Options struct {
	// Buckets is the home-bucket count (rounded up to a power of two).
	Buckets int
	// Nbatch is the per-bucket DRAM buffer capacity (default 2).
	Nbatch int
	// THlog triggers GC when live log bytes exceed THlog × bucket
	// bytes (default 0.2).
	THlog float64
	// ChunkBytes is the WAL chunk size (default 1 MB).
	ChunkBytes int
	// DisableGC turns reclamation off.
	DisableGC bool
}

func (o Options) withDefaults() Options {
	if o.Buckets <= 0 {
		o.Buckets = 1 << 14
	}
	o.Buckets = 1 << bits.Len(uint(o.Buckets-1))
	if o.Nbatch == 0 {
		o.Nbatch = 2
	}
	if o.Nbatch < 0 {
		o.Nbatch = 0
	}
	if o.THlog <= 0 {
		o.THlog = 0.2
	}
	if o.ChunkBytes == 0 {
		o.ChunkBytes = 1 << 20
	}
	return o
}

// bufNode is the DRAM buffer in front of one home bucket (it covers the
// bucket's whole overflow chain).
type bufNode struct {
	version atomic.Uint64
	hdr     atomic.Uint64 // pos (8b) | epoch bits (16b)
	slots   []atomic.Uint64
}

func (n *bufNode) tryLock() (uint64, bool) {
	v := n.version.Load()
	if v&1 != 0 {
		return 0, false
	}
	return v, n.version.CompareAndSwap(v, v+1)
}

func (n *bufNode) unlock(v uint64) { n.version.Store(v + 2) }

func (n *bufNode) beginRead() (uint64, bool) {
	v := n.version.Load()
	return v, v&1 == 0
}

func (n *bufNode) validate(v uint64) bool { return n.version.Load() == v }

// Table is the persistent hash table.
type Table struct {
	pool   *pmem.Pool
	alloc  *pmalloc.Allocator
	walman *wal.Manager
	clock  *ordo.Clock
	opts   Options

	base    pmem.Addr // bucket array
	mask    uint64
	buffers []bufNode

	epoch     atomic.Uint32
	workersMu sync.Mutex
	workers   []*Worker
	gcRunning atomic.Bool
	gcDone    chan struct{}
	gcMu      sync.Mutex
	gcW       *Worker
	gcOnce    sync.Once
	closed    atomic.Bool

	logBytes    atomic.Int64
	overflowCnt atomic.Int64
	triggers    atomic.Uint64
	logged      atomic.Uint64
	gcRuns      atomic.Uint64
}

// New creates a table on the pool.
func New(pool *pmem.Pool, opts Options) (*Table, error) {
	opts = opts.withDefaults()
	h := &Table{
		pool:   pool,
		alloc:  pmalloc.New(pool),
		clock:  ordo.New(pool.Sockets(), 16),
		opts:   opts,
		mask:   uint64(opts.Buckets - 1),
		gcDone: make(chan struct{}),
	}
	close(h.gcDone)
	h.walman = wal.NewManager(h.alloc, opts.ChunkBytes)
	base, err := h.alloc.Alloc(0, opts.Buckets*BucketBytes)
	if err != nil {
		return nil, fmt.Errorf("cclhash: bucket array: %w", err)
	}
	h.base = base
	t := pool.NewThread(0)
	zero := make([]uint64, pmleaf.Words)
	for b := 0; b < opts.Buckets; b++ {
		t.WriteRange(base.Add(int64(b*BucketBytes)), zero)
	}
	t.Persist(base, opts.Buckets*BucketBytes)
	h.buffers = make([]bufNode, opts.Buckets)
	for i := range h.buffers {
		h.buffers[i].slots = make([]atomic.Uint64, 2*opts.Nbatch)
	}
	return h, nil
}

// Stats reports behavioral counters.
func (h *Table) Stats() (triggers, logged, gcRuns uint64, overflow int64) {
	return h.triggers.Load(), h.logged.Load(), h.gcRuns.Load(), h.overflowCnt.Load()
}

// Close stops background GC.
func (h *Table) Close() {
	h.closed.Store(true)
	h.gcMu.Lock()
	done := h.gcDone
	h.gcMu.Unlock()
	<-done
}

func hashKey(k uint64) uint64 {
	k ^= k >> 33
	k *= 0xff51afd7ed558ccd
	k ^= k >> 33
	k *= 0xc4ceb9fe1a85ec53
	k ^= k >> 33
	return k
}

func fp(k uint64) byte {
	x := hashKey(k)
	b := byte(x>>56) ^ byte(x>>24)
	return b
}

// Worker is a per-goroutine handle.
type Worker struct {
	h      *Table
	t      *pmem.Thread
	socket int
	logs   [2]*wal.Log
}

// NewWorker creates a handle bound to a socket.
func (h *Table) NewWorker(socket int) *Worker {
	w := &Worker{h: h, t: h.pool.NewThread(socket), socket: socket}
	w.logs[0] = wal.NewLog(h.walman, socket)
	w.logs[1] = wal.NewLog(h.walman, socket)
	h.workersMu.Lock()
	h.workers = append(h.workers, w)
	h.workersMu.Unlock()
	return w
}

// Thread exposes the worker's PM thread.
func (w *Worker) Thread() *pmem.Thread { return w.t }

func (h *Table) bucketAddr(b uint64) pmem.Addr {
	return h.base.Add(int64(b * BucketBytes))
}

// Put inserts or updates a pair. Key must be nonzero; value 0 is the
// tombstone (use Delete).
func (w *Worker) Put(key, value uint64) error {
	if key == 0 {
		return fmt.Errorf("cclhash: key 0 is reserved")
	}
	if value == 0 {
		return fmt.Errorf("cclhash: value 0 is the tombstone; use Delete")
	}
	return w.put(key, value)
}

// Delete removes key via a buffered tombstone.
func (w *Worker) Delete(key uint64) error {
	if key == 0 {
		return fmt.Errorf("cclhash: key 0 is reserved")
	}
	return w.put(key, 0)
}

func (w *Worker) put(key, value uint64) error {
	h := w.h
	b := hashKey(key) & h.mask
	n := &h.buffers[b]
	for {
		v, ok := n.tryLock()
		if !ok {
			runtime.Gosched()
			continue
		}
		err := w.putLocked(n, b, key, value)
		n.unlock(v)
		if err != nil {
			return err
		}
		h.maybeGC()
		return nil
	}
}

func (w *Worker) putLocked(n *bufNode, b uint64, key, value uint64) error {
	h := w.h
	hv := n.hdr.Load()
	pos := int(hv & 0xff)
	eb := uint16(hv >> 8)
	epoch := uint16(h.epoch.Load())

	// In-buffer upsert among unflushed slots.
	for i := 0; i < pos; i++ {
		if n.slots[2*i].Load() == key {
			if err := w.appendLog(key, value); err != nil {
				return err
			}
			n.slots[2*i+1].Store(value)
			eb = eb&^(1<<uint(i)) | epoch<<uint(i)
			n.hdr.Store(uint64(pos) | uint64(eb)<<8)
			return nil
		}
	}
	nb := len(n.slots) / 2
	if pos >= nb {
		// Trigger write: flush the batch into the bucket chain in one
		// XPLine write per touched bucket; skip the log for the
		// trigger KV (write-conservative logging).
		h.triggers.Add(1)
		batch := make([]kv, 0, pos+1)
		for i := 0; i < pos; i++ {
			batch = append(batch, kv{n.slots[2*i].Load(), n.slots[2*i+1].Load()})
		}
		batch = append(batch, kv{key, value})
		if err := w.flushBatch(b, batch); err != nil {
			return err
		}
		// Refresh cached copies of the trigger key.
		for i := 0; i < nb; i++ {
			if n.slots[2*i].Load() == key {
				n.slots[2*i+1].Store(value)
			}
		}
		n.hdr.Store(uint64(0) | uint64(eb)<<8)
		return nil
	}
	if err := w.appendLog(key, value); err != nil {
		return err
	}
	n.slots[2*pos].Store(key)
	n.slots[2*pos+1].Store(value)
	// Purge stale cached copies from earlier flush rounds (see the
	// tree's applyRunLocked for the shadowing hazard).
	for i := pos + 1; i < nb; i++ {
		if n.slots[2*i].Load() == key {
			n.slots[2*i].Store(0)
			n.slots[2*i+1].Store(0)
		}
	}
	eb = eb&^(1<<uint(pos)) | epoch<<uint(pos)
	n.hdr.Store(uint64(pos+1) | uint64(eb)<<8)
	return nil
}

type kv struct{ k, v uint64 }

func (w *Worker) appendLog(key, value uint64) error {
	h := w.h
	e := h.epoch.Load()
	if _, err := w.logs[e].Append(w.t, wal.Entry{
		Key: key, Value: value, Timestamp: h.clock.Now(w.socket),
	}); err != nil {
		return err
	}
	h.logBytes.Add(wal.EntrySize)
	h.logged.Add(1)
	return nil
}

// flushBatch applies the batch to bucket b's chain crash-consistently:
// plan slot assignments over the whole chain, write data words and
// fence, then publish headers from the TAIL of the chain back to the
// home bucket. The home bucket's timestamp — which gates WAL replay for
// every entry this buffer held — therefore persists only after all of
// the batch's data is durable; a crash before it replays the entries
// idempotently.
func (w *Worker) flushBatch(home uint64, batch []kv) error {
	h := w.h

	type plan struct {
		img      pmleaf.Image
		origNext pmem.Addr // successor before the meta word is rebuilt
		dirtyLo  int
		dirtyHi  int
		fresh    bool // newly allocated overflow bucket
	}
	var chain []*plan
	mark := func(p *plan, wd int) {
		if wd < p.dirtyLo {
			p.dirtyLo = wd
		}
		if wd > p.dirtyHi {
			p.dirtyHi = wd
		}
	}

	// Plan across the chain, extending it as needed.
	addr := h.bucketAddr(home)
	remaining := batch
	for {
		p := &plan{dirtyLo: pmleaf.Words, dirtyHi: -1}
		if addr.IsNil() {
			// Fresh overflow bucket (only reached when live entries
			// still need slots).
			nb, err := h.alloc.Alloc(w.t.Socket(), BucketBytes)
			if err != nil {
				return fmt.Errorf("cclhash: overflow bucket: %w", err)
			}
			p.img.Addr = nb
			p.fresh = true
			h.overflowCnt.Add(1)
		} else {
			p.img.Read(w.t, addr)
			p.origNext = p.img.Next()
		}
		bm := p.img.Bitmap()
		var assigned uint16
		var deferred []kv
		for _, e := range remaining {
			slot := -1
			f := fp(e.k)
			for i := 0; i < BucketSlots; i++ {
				if bm&(1<<uint(i)) != 0 && p.img.FPAt(i) == f && p.img.Key(i) == e.k {
					slot = i
					break
				}
			}
			if slot >= 0 {
				if e.v == 0 {
					bm &^= 1 << uint(slot) // fixed bucket addresses: safe to clear
					continue
				}
				p.img.SetKV(slot, e.k, e.v)
				mark(p, pmleaf.SlotWord(slot)+1)
				continue
			}
			if e.v == 0 {
				deferred = append(deferred, e) // may live further down
				continue
			}
			free := ^uint32(bm) & ^uint32(assigned) & pmleaf.BitmapMask
			if free == 0 {
				deferred = append(deferred, e)
				continue
			}
			i := bits.TrailingZeros32(free)
			p.img.SetKV(i, e.k, e.v)
			p.img.SetFP(i, f)
			assigned |= 1 << uint(i)
			bm |= 1 << uint(i)
			mark(p, pmleaf.SlotWord(i))
			mark(p, pmleaf.SlotWord(i)+1)
		}
		p.img.SetMeta(pmleaf.PackMeta(bm, pmem.NilAddr)) // next filled below
		chain = append(chain, p)

		needSlot := false
		for _, e := range deferred {
			if e.v != 0 {
				needSlot = true
			}
		}
		if !needSlot {
			break
		}
		addr = p.origNext // NilAddr at chain end -> fresh bucket next round
		remaining = deferred
	}

	// Re-link: each planned bucket's meta keeps its successor (existing
	// link or freshly planned bucket).
	for i, p := range chain {
		next := p.origNext // preserve any untraversed tail
		if i+1 < len(chain) {
			next = chain[i+1].img.Addr
		}
		p.img.SetMeta(pmleaf.PackMeta(p.img.Bitmap(), next))
	}

	// Phase 1: data. Fresh buckets persist whole; existing buckets
	// flush only their dirty slot words. One fence covers them all.
	for _, p := range chain {
		if p.fresh {
			w.t.WriteRange(p.img.Addr, p.img.Words[:])
			w.t.Flush(p.img.Addr, BucketBytes)
			continue
		}
		if p.dirtyHi < 0 {
			continue
		}
		for wd := p.dirtyLo; wd <= p.dirtyHi; wd++ {
			w.t.Store(p.img.Addr.Add(int64(8*wd)), p.img.Words[wd])
		}
		w.t.Flush(p.img.Addr.Add(int64(8*p.dirtyLo)), 8*(p.dirtyHi-p.dirtyLo+1))
	}
	w.t.Fence()

	// Phase 2: publish headers tail -> home; the home bucket's
	// timestamp lands last.
	for i := len(chain) - 1; i >= 0; i-- {
		p := chain[i]
		if p.fresh {
			continue // already fully persistent
		}
		p.img.SetTS(h.clock.Now(w.socket))
		pmleaf.WriteHeader(w.t, &p.img)
	}
	return nil
}

// Get returns the value for key.
func (w *Worker) Get(key uint64) (uint64, bool) {
	h := w.h
	b := hashKey(key) & h.mask
	n := &h.buffers[b]
	for {
		v, clean := n.beginRead()
		if !clean {
			runtime.Gosched()
			continue
		}
		// Buffer scan, leftmost (newest) first.
		nb := len(n.slots) / 2
		w.t.Advance(int64(nb) * w.t.CostDRAM())
		for i := 0; i < nb; i++ {
			if n.slots[2*i].Load() == key {
				val := n.slots[2*i+1].Load()
				if !n.validate(v) {
					break
				}
				return val, val != 0
			}
		}
		val, found, ok := w.searchChain(key, h.bucketAddr(b))
		if ok && n.validate(v) {
			return val, found
		}
		runtime.Gosched()
	}
}

func (w *Worker) searchChain(key uint64, addr pmem.Addr) (uint64, bool, bool) {
	f := fp(key)
	for !addr.IsNil() {
		var hdr pmleaf.Image
		hdr.ReadHeader(w.t, addr)
		bm := hdr.Bitmap()
		for i := 0; i < BucketSlots; i++ {
			if bm&(1<<uint(i)) == 0 || hdr.FPAt(i) != f {
				continue
			}
			if slot := pmleaf.SlotAddr(addr, i); w.t.Load(slot) == key {
				return w.t.Load(slot.Add(8)), true, true
			}
		}
		addr = hdr.Next()
	}
	return 0, false, true
}
