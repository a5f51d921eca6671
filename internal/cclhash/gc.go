package cclhash

import (
	"fmt"
	"runtime"
	"sync/atomic"

	"cclbtree/internal/ordo"
	"cclbtree/internal/pmalloc"
	"cclbtree/internal/pmem"
	"cclbtree/internal/pmleaf"
	"cclbtree/internal/wal"
)

// maybeGC triggers locality-aware reclamation when live log bytes
// exceed THlog × bucket bytes (§3.4 applied to the table).
func (h *Table) maybeGC() {
	if h.opts.DisableGC || h.gcRunning.Load() || h.closed.Load() {
		return
	}
	logBytes := h.logBytes.Load()
	if logBytes < 2*int64(h.opts.ChunkBytes) {
		return
	}
	bucketBytes := int64(h.opts.Buckets+int(h.overflowCnt.Load())) * BucketBytes
	if float64(logBytes) <= h.opts.THlog*float64(bucketBytes) {
		return
	}
	h.startGC()
}

func (h *Table) startGC() {
	if h.closed.Load() || !h.gcRunning.CompareAndSwap(false, true) {
		return
	}
	done := make(chan struct{})
	h.gcMu.Lock()
	h.gcDone = done
	h.gcMu.Unlock()
	go func() {
		defer close(done)
		defer h.gcRunning.Store(false)
		h.runGC()
	}()
}

// ForceGC runs (or joins) one reclamation round synchronously.
func (h *Table) ForceGC() {
	if h.closed.Load() {
		return
	}
	h.startGC()
	h.gcMu.Lock()
	done := h.gcDone
	h.gcMu.Unlock()
	<-done
}

func (h *Table) gcWorker() *Worker {
	h.gcOnce.Do(func() { h.gcW = h.NewWorker(0) })
	return h.gcW
}

// runGC is the table's locality-aware collection: flip the epoch, copy
// still-unflushed buffered entries to the GC thread's I-log (sequential
// writes only), restamp their epoch bits, then recycle the old
// generation's chunks.
func (h *Table) runGC() {
	h.gcRuns.Add(1)
	w := h.gcWorker()
	oldE := h.epoch.Load()
	newE := 1 - oldE
	h.epoch.Store(newE)

	for b := range h.buffers {
		if h.closed.Load() {
			return // mid-GC power failure: old generation stays live
		}
		n := &h.buffers[b]
		for {
			v, ok := n.tryLock()
			if !ok {
				runtime.Gosched()
				continue
			}
			hv := n.hdr.Load()
			pos := int(hv & 0xff)
			eb := uint16(hv >> 8)
			for i := 0; i < pos; i++ {
				if uint32(eb>>uint(i)&1) == newE {
					continue
				}
				if _, err := w.logs[newE].Append(w.t, wal.Entry{
					Key:       n.slots[2*i].Load(),
					Value:     n.slots[2*i+1].Load(),
					Timestamp: h.clock.Now(w.socket),
				}); err != nil {
					n.unlock(v)
					return
				}
				h.logBytes.Add(wal.EntrySize)
				eb = eb&^(1<<uint(i)) | uint16(newE)<<uint(i)
			}
			n.hdr.Store(uint64(pos) | uint64(eb)<<8)
			n.unlock(v)
			break
		}
	}

	h.workersMu.Lock()
	ws := append([]*Worker(nil), h.workers...)
	h.workersMu.Unlock()
	var chunks []pmem.Addr
	for _, wk := range ws {
		h.logBytes.Add(-wk.logs[oldE].Bytes())
		chunks = append(chunks, wk.logs[oldE].Detach()...)
	}
	h.walman.ReleaseChunks(chunks)
}

// Recover rebuilds a table after a power failure: walk the bucket
// array to restore volatile state, then replay WAL entries newer than
// their home bucket's timestamp. The caller passes the live chunk set
// (a host application persists it in a small directory; the cclbtree
// core shows a fully persistent one — this extension keeps that
// bookkeeping external). As in core.Open, the clock resumes above the
// image and each bucket replays its entries as one batch, so a crash
// inside Recover loses nothing and no stamp needs resetting.
func Recover(pool *pmem.Pool, opts Options, base pmem.Addr, chunks []pmem.Addr) (*Table, error) {
	opts = opts.withDefaults()
	h := &Table{
		pool:   pool,
		alloc:  pmalloc.New(pool),
		clock:  ordo.New(pool.Sockets(), 16),
		opts:   opts,
		mask:   uint64(opts.Buckets - 1),
		base:   base,
		gcDone: make(chan struct{}),
	}
	//persistlint:ignore PL009 Recover runs single-threaded before the table is published; no GC can race
	close(h.gcDone)
	h.walman = wal.NewManager(h.alloc, opts.ChunkBytes)
	h.buffers = make([]bufNode, opts.Buckets)
	for i := range h.buffers {
		h.buffers[i].slots = make([]atomic.Uint64, 2*opts.Nbatch)
	}

	t := pool.NewThread(0)
	// Walk chains: count overflow buckets and track the reachability
	// high-water mark so a fresh (cross-process) allocator never
	// overlaps live data.
	maxEnd := make([]uint64, pool.Sockets())
	track := func(a pmem.Addr, size int64) {
		if end := a.Offset() + uint64(size); end > maxEnd[a.Socket()] {
			maxEnd[a.Socket()] = end
		}
	}
	track(base, int64(opts.Buckets)*BucketBytes)
	for _, c := range chunks {
		track(c, int64(opts.ChunkBytes))
	}
	maxTick := uint64(0)
	homeTS := make([]uint64, opts.Buckets)
	for b := 0; b < opts.Buckets; b++ {
		var img pmleaf.Image
		img.Read(t, h.bucketAddr(uint64(b)))
		homeTS[b] = img.TS()
		maxTick = max(maxTick, img.TS())
		for next := img.Next(); !next.IsNil(); {
			h.overflowCnt.Add(1)
			track(next, BucketBytes)
			img.Read(t, next)
			maxTick = max(maxTick, img.TS())
			next = img.Next()
		}
	}
	for s := range maxEnd {
		h.alloc.SetBump(s, maxEnd[s])
	}

	// Replay: newest entry per key, gated by the home bucket timestamp
	// (bucket addresses are fixed, so routing is exact).
	newest := map[uint64]wal.Entry{}
	for _, e := range wal.ReadEntriesInChunks(t, chunks, opts.ChunkBytes) {
		maxTick = max(maxTick, e.Timestamp)
		if cur, ok := newest[e.Key]; !ok || e.Timestamp > cur.Timestamp {
			newest[e.Key] = e
		}
	}
	h.clock.AdvanceTo(maxTick + h.clock.Boundary())
	groups := make([][]kv, opts.Buckets)
	for _, e := range newest {
		b := hashKey(e.Key) & h.mask
		if e.Timestamp > homeTS[b] { // else covered by a completed flush
			groups[b] = append(groups[b], kv{e.Key, e.Value})
		}
	}
	w := h.NewWorker(0)
	for b, g := range groups {
		if len(g) == 0 {
			continue
		}
		if err := w.flushBatch(uint64(b), g); err != nil {
			return nil, fmt.Errorf("cclhash: replay: %w", err)
		}
	}
	h.walman.AdoptChunks(chunks)
	return h, nil
}
