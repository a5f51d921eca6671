package pmem

import (
	"sync"
	"sync/atomic"
)

// interleaveXPLines is the DIMM interleave granularity in XPLines
// (16 × 256 B = 4 KB, matching real platform interleaving).
const interleaveXPLines = 16

const numShards = 64

// lineWords is the content of one cacheline.
type lineWords [wordsPerLine]uint64

// lineEntry tracks one dirty cacheline in the modeled CPU cache. pre is
// the persistent image to restore on a crash; it is meaningful only
// when the device tracks pre-images (device.trackPre). Entries live by
// value in their shard's map — nothing ever holds a pointer to one, so
// a slot the map reuses for another line cannot be reached through a
// stale reference — and are read and written only under the shard lock.
type lineEntry struct {
	pre lineWords
}

// lineShard stripes the dirty-line table to keep store-path locking
// cheap under concurrency. The map's slot storage is what recycles
// entries: in steady state insert-after-delete reuses it, so dirtying
// a line allocates nothing.
type lineShard struct {
	mu    sync.Mutex
	lines map[uint64]lineEntry // cacheline index -> entry
}

// dimm models one DIMM: an XPBuffer (write-combining cache of XPLines
// with LRU replacement) plus a bandwidth arbiter for the media behind it.
type dimm struct {
	mu sync.Mutex
	// slab holds the buffer's XPBufferLines entries; the resident ones
	// are slab[:len(ent)]. A fill below capacity takes the next unused
	// entry, a fill at capacity reuses its LRU victim's, and drain
	// empties the buffer whole — so a miss never allocates.
	slab []xpEntry
	// lru is a doubly linked list of resident XPLines, most recent
	// first, implemented inline to avoid container/list allocations.
	ent        map[uint64]*xpEntry
	head, tail *xpEntry

	busyUntil atomic.Int64
}

type xpEntry struct {
	xpline     uint64
	scope      Scope
	dirty      bool
	prev, next *xpEntry
}

// device is one socket's PM: the word array (media + cache view), the
// dirty-line table, XPLine residency bits, and the DIMM models.
type device struct {
	id    int
	words []uint64
	// dirtyBits has one bit per cacheline: set iff the line has an
	// entry in its shard (i.e. is dirty in the modeled CPU cache).
	dirtyBits []atomic.Uint32
	// residentBits has one bit per XPLine: set iff the XPLine is
	// resident in its DIMM's XPBuffer. Maintained under the DIMM lock,
	// read lock-free on the load path.
	residentBits []atomic.Uint32
	shards       [numShards]lineShard
	dirtyCount   atomic.Int64
	evictCursor  atomic.Uint64
	dimms        []*dimm
	cacheCap     int
	// trackPre: stores save the line's pre-store content for crash
	// rollback (ADR with crash tracking on). Under eADR the cache itself
	// is persistent and entries carry no pre-image.
	trackPre bool
}

func newDevice(id int, cfg *Config) *device {
	nWords := cfg.DeviceBytes / WordSize
	nLines := cfg.DeviceBytes / CachelineSize
	nXP := cfg.DeviceBytes / XPLineSize
	d := &device{
		id:           id,
		words:        make([]uint64, nWords),
		dirtyBits:    make([]atomic.Uint32, (nLines+31)/32),
		residentBits: make([]atomic.Uint32, (nXP+31)/32),
		dimms:        make([]*dimm, cfg.DIMMsPerSocket),
		cacheCap:     cfg.CacheLines,
		trackPre:     cfg.Mode == ADR && !cfg.DisableCrashTracking,
	}
	for i := range d.shards {
		d.shards[i].lines = make(map[uint64]lineEntry)
	}
	for i := range d.dimms {
		d.dimms[i] = &dimm{
			slab: make([]xpEntry, cfg.XPBufferLines),
			ent:  make(map[uint64]*xpEntry, cfg.XPBufferLines),
		}
	}
	return d
}

func (d *device) shardFor(line uint64) *lineShard {
	return &d.shards[line%numShards]
}

func (d *device) dimmFor(xpline uint64) *dimm {
	return d.dimms[(xpline/interleaveXPLines)%uint64(len(d.dimms))]
}

func (d *device) lineDirty(line uint64) bool {
	return d.dirtyBits[line/32].Load()&(1<<(line%32)) != 0
}

func (d *device) setDirtyBit(line uint64) {
	w := &d.dirtyBits[line/32]
	bit := uint32(1) << (line % 32)
	for {
		old := w.Load()
		if old&bit != 0 || w.CompareAndSwap(old, old|bit) {
			return
		}
	}
}

func (d *device) clearDirtyBit(line uint64) {
	w := &d.dirtyBits[line/32]
	bit := uint32(1) << (line % 32)
	for {
		old := w.Load()
		if old&bit == 0 || w.CompareAndSwap(old, old&^bit) {
			return
		}
	}
}

func (d *device) setResident(xp uint64, v bool) {
	w := &d.residentBits[xp/32]
	bit := uint32(1) << (xp % 32)
	for {
		old := w.Load()
		var nw uint32
		if v {
			nw = old | bit
		} else {
			nw = old &^ bit
		}
		if old == nw || w.CompareAndSwap(old, nw) {
			return
		}
	}
}

// readLine snapshots the 8 words of a cacheline into dst, each word
// atomically.
func (d *device) readLine(line uint64, dst *lineWords) {
	base := line * wordsPerLine
	for i := range dst {
		dst[i] = atomic.LoadUint64(&d.words[base+uint64(i)])
	}
}

// markDirty records a store's cacheline in the CPU-cache model, saving
// the pre-store content for crash rollback when the device tracks it.
// It returns true when the dirty set exceeded capacity and the caller
// should evict one line (done outside the shard lock to avoid lock-order
// inversion between shards).
func (d *device) markDirty(line uint64) bool {
	if d.lineDirty(line) {
		return false
	}
	sh := d.shardFor(line)
	sh.mu.Lock()
	if _, ok := sh.lines[line]; ok {
		sh.mu.Unlock()
		return false
	}
	var e lineEntry
	if d.trackPre {
		d.readLine(line, &e.pre)
	}
	sh.lines[line] = e
	d.setDirtyBit(line)
	sh.mu.Unlock()
	return d.dirtyCount.Add(1) > int64(d.cacheCap)
}

// evictOne writes back an arbitrary dirty line (hardware cache
// eviction): the data persists, a media-level write is accounted, and
// the program had no say — this is what degrades eADR locality (§5.5).
func (d *device) evictOne(p *Pool, t *Thread) {
	start := d.evictCursor.Add(1)
	for i := uint64(0); i < numShards; i++ {
		sh := &d.shards[(start+i)%numShards]
		sh.mu.Lock()
		var victim uint64
		found := false
		for line := range sh.lines {
			victim = line
			found = true
			break
		}
		if !found {
			sh.mu.Unlock()
			continue
		}
		delete(sh.lines, victim)
		d.clearDirtyBit(victim)
		sh.mu.Unlock()
		d.dirtyCount.Add(-1)
		p.ctr.cur.cacheEvictions.Add(1)
		if h := p.devHook.Load(); h != nil {
			(*h)(DevCacheEvict, d.id, victim/linesPerXPLine)
		}
		// The written-back line flows through the XPBuffer like any
		// flush; the backpressure stall still lands on the thread
		// whose store overflowed the cache.
		if _, stall := d.xpbufAccess(p, t, victim, true); stall > 0 {
			t.vt += stall
		}
		return
	}
}

// xpbufAccess models one cacheline-granular access reaching the
// XPBuffer: a write-back from a flush or cache eviction (isWrite), or a
// load fill (read). Hits are write-combined or served in place; misses
// bring the XPLine in from media, evicting (and writing back, if
// dirty) the LRU line. It returns (hit, backpressure stall): the stall
// reflects how far the DIMM's media queue runs ahead of the thread —
// the WPQ/XPBuffer backpressure that makes XPLine flush count, not
// cacheline flush count, bound throughput at saturation (§2.2).
func (d *device) xpbufAccess(p *Pool, t *Thread, line uint64, isWrite bool) (bool, int64) {
	c := &p.cfg.Cost
	xp := line / linesPerXPLine
	dm := d.dimmFor(xp)
	if isWrite {
		p.ctr.cur.xpbufWriteBytes.Add(CachelineSize)
		p.ctr.cur.xpbufWriteByScope[t.scope].Add(CachelineSize)
	}

	dm.mu.Lock()
	if e, ok := dm.ent[xp]; ok {
		dm.moveToFront(e)
		if isWrite {
			e.dirty = true
			e.scope = t.scope
			p.ctr.cur.xpbufWriteHits.Add(1)
		} else {
			p.ctr.cur.xpbufReadHits.Add(1)
		}
		backlog := dm.busyUntil.Load()
		dm.mu.Unlock()
		stall := backlog - t.vt - c.MaxQueueLead
		if stall < 0 {
			stall = 0
		}
		return true, stall
	}
	if isWrite {
		p.ctr.cur.xpbufWriteMiss.Add(1)
	} else {
		p.ctr.cur.xpbufReadMiss.Add(1)
	}
	// Fill: read-modify-write brings the XPLine in from media.
	completion := dm.occupy(c.MediaRead)
	p.ctr.cur.mediaReadBytes.Add(XPLineSize)
	var evicted uint64
	dirtyEvict := false
	var e *xpEntry
	if len(dm.ent) < len(dm.slab) {
		e = &dm.slab[len(dm.ent)]
	} else {
		e = dm.popBack()
		delete(dm.ent, e.xpline)
		d.setResident(e.xpline, false)
		if e.dirty {
			completion = dm.occupy(c.MediaWrite)
			p.ctr.cur.mediaWriteBytes.Add(XPLineSize)
			p.ctr.cur.mediaWriteByScope[e.scope].Add(XPLineSize)
			evicted, dirtyEvict = e.xpline, true
		}
	}
	*e = xpEntry{xpline: xp, scope: t.scope, dirty: isWrite}
	dm.ent[xp] = e
	dm.pushFront(e)
	d.setResident(xp, true)
	dm.mu.Unlock()
	if dirtyEvict {
		if h := p.devHook.Load(); h != nil {
			(*h)(DevXPBufEvict, d.id, evicted)
		}
	}

	stall := completion - t.vt - c.MaxQueueLead
	if stall < 0 {
		stall = 0
	}
	return false, stall
}

// drain writes back every dirty XPLine resident in the device's
// XPBuffers so end-of-run accounting includes buffered-but-unwritten
// lines.
func (d *device) drain(p *Pool) {
	for _, dm := range d.dimms {
		dm.mu.Lock()
		for xp, e := range dm.ent {
			if e.dirty {
				p.ctr.cur.mediaWriteBytes.Add(XPLineSize)
				p.ctr.cur.mediaWriteByScope[e.scope].Add(XPLineSize)
			}
			d.setResident(xp, false)
			delete(dm.ent, xp)
		}
		dm.head, dm.tail = nil, nil
		dm.mu.Unlock()
	}
}

// crash rolls the device back to its persistent image: every dirty line
// with a pre-image is restored, the dirty set is cleared. XPBuffer and
// WPQ contents are inside the ADR power-fail domain and survive (they
// are accounting-only in this model; the flushed data already lives in
// words).
func (d *device) crash() {
	for i := range d.shards {
		sh := &d.shards[i]
		sh.mu.Lock()
		for line, e := range sh.lines {
			if d.trackPre {
				base := line * wordsPerLine
				for j, w := range e.pre {
					atomic.StoreUint64(&d.words[base+uint64(j)], w)
				}
			}
			d.clearDirtyBit(line)
			delete(sh.lines, line)
		}
		sh.mu.Unlock()
	}
	d.dirtyCount.Store(0)
}

// --- dimm LRU helpers (caller holds dm.mu) ---

func (dm *dimm) pushFront(e *xpEntry) {
	e.prev = nil
	e.next = dm.head
	if dm.head != nil {
		dm.head.prev = e
	}
	dm.head = e
	if dm.tail == nil {
		dm.tail = e
	}
}

func (dm *dimm) unlink(e *xpEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		dm.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		dm.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (dm *dimm) moveToFront(e *xpEntry) {
	if dm.head == e {
		return
	}
	dm.unlink(e)
	dm.pushFront(e)
}

func (dm *dimm) popBack() *xpEntry {
	e := dm.tail
	dm.unlink(e)
	return e
}

// occupy consumes service ns of the DIMM's media bandwidth, returning
// the cumulative busy time. The DIMM timeline is a pure work sum: a
// thread whose own clock lags the sum by more than the queue-lead pays
// the difference as backpressure. Keeping the timeline independent of
// per-thread clocks makes the model stable under any goroutine
// scheduling on the host (per-thread arrival coupling would let one
// late clock drag the shared frontier).
func (dm *dimm) occupy(service int64) int64 {
	return dm.busyUntil.Add(service)
}
