// Package pmalloc is a chunk-based persistent-memory allocator in the
// style the paper adopts from uTree (§4.2): threads carve small objects
// (256 B leaf nodes) out of larger chunks so that allocation is cheap
// and a crash can leak at most the unpublished tail of a chunk, which
// recovery reclaims by rebuilding reachability from the leaf linked
// list.
//
// The 256 B line class (tree leaves, hash overflow buckets, baseline
// leaves) takes the bump region 64 KB at a time: one carve of 256
// lines, handed out in address order. A recorder installed with
// SetCarveRecorder sees every carve before any line of it is handed
// out; the engine persists each one in its carve directory, next to the
// WAL chunk directory, so recovery can read every line that was ever a
// leaf in parallel, carve by carve, instead of chasing the leaf list
// through PM. The record is a hint: the leaf list still decides which
// lines are live.
//
// Allocator metadata lives in DRAM: like the modeled indexes, recovery
// never trusts volatile allocator state — it re-derives liveness from
// the persistent structures. Exact-size free lists make Free/Alloc pairs
// recycle the same PM addresses, which both bounds PM consumption and
// preserves XPLine locality of reused log chunks (§3.4).
package pmalloc

import (
	"fmt"
	"sync"
	"sync/atomic"

	"cclbtree/internal/pmem"
)

// reserveBytes keeps the low addresses of every arena unallocated so
// offset 0 can serve as the nil pointer and the first offsets of each
// arena can hold superblock-style metadata (core's superblock lives at
// arena base + 256).
const reserveBytes = 4096

// lineBytes is the line class: requests that round to it are carved.
const lineBytes = pmem.XPLineSize

// carveBytes is how much the line class takes from the bump region at a
// time: 256 lines.
const carveBytes = 64 << 10

// Carve is one run of Lines consecutive lines the line class took from
// a socket's bump region, starting at Start. Every carve is whole but
// one at the end of an arena.
type Carve struct {
	Start pmem.Addr
	Lines int
}

// Word packs the carve into one nonzero word: Start is line-aligned and
// above the arena's reserve, and Lines−1 fits the low byte.
func (c Carve) Word() uint64 { return uint64(c.Start) | uint64(c.Lines-1) }

// CarveOf unpacks a word Word packed.
func CarveOf(w uint64) Carve {
	return Carve{pmem.Addr(w &^ (lineBytes - 1)), int(w&(lineBytes-1)) + 1}
}

// Allocator hands out PM blocks from per-socket arenas. An Allocator
// covers either the whole device (New) or one of count equal slices of
// it (NewArena); allocators over disjoint arenas never hand out
// overlapping regions, which is what lets several independently
// recovered trees — the sharded DB frontend — share one pool.
type Allocator struct {
	pool    *pmem.Pool
	base    uint64 // arena start offset, identical on every socket
	sockets []socketArena
	// record is the installed carve recorder (SetCarveRecorder), nil
	// when none is.
	record atomic.Pointer[func(Carve)]
}

type socketArena struct {
	mu    sync.Mutex
	base  uint64 // arena start offset on this socket
	next  uint64 // bump pointer
	limit uint64
	free  map[int][]pmem.Addr // size class -> free addresses
	// carve, carveEnd bound the line class's unused rest of its current
	// carve.
	carve, carveEnd uint64
	inUse           int64
	wasted          int64 // rounding loss
}

// New returns the pool's whole-device allocator, creating it on first
// use. Every caller allocating on the same pool shares one allocator
// (bump pointers and free lists), so independently constructed
// components — an index, its WAL manager, a benchmark's blob arena —
// can never hand out overlapping PM regions.
func New(pool *pmem.Pool) *Allocator {
	a, err := NewArena(pool, 0, 1)
	if err != nil {
		// Unreachable: arena 0 of 1 spans the device and the device is
		// never smaller than one arena's reserve.
		panic(err)
	}
	return a
}

// NewArena returns the allocator for slice index of count equal
// per-socket slices of the pool, creating it on first use. Like New,
// the allocator for a given (index, count) is a pool-scoped singleton.
// Each arena reserves its own low reserveBytes for superblock-style
// metadata, so components placed in different arenas recover
// independently: one arena's bump-pointer rebuild can never allocate
// over another arena's still-unscanned live data.
//
// Arenas of different counts overlap (slice 0 of 2 covers slices 0 and
// 1 of 4); a pool must be carved with one count for its lifetime.
func NewArena(pool *pmem.Pool, index, count int) (*Allocator, error) {
	if count < 1 || index < 0 || index >= count {
		return nil, fmt.Errorf("pmalloc: arena %d of %d impossible", index, count)
	}
	span := (uint64(pool.DeviceBytes()) / uint64(count)) &^ (pmem.XPLineSize - 1)
	if span < 4*reserveBytes {
		return nil, fmt.Errorf("pmalloc: %d arenas of a %d-byte device leave only %d bytes each",
			count, pool.DeviceBytes(), span)
	}
	key := "pmalloc"
	if count > 1 {
		key = fmt.Sprintf("pmalloc@%d/%d", index, count)
	}
	return pool.Aux(key, func() any {
		return newAllocator(pool, uint64(index)*span, uint64(index)*span+span)
	}).(*Allocator), nil
}

func newAllocator(pool *pmem.Pool, base, limit uint64) *Allocator {
	a := &Allocator{pool: pool, base: base, sockets: make([]socketArena, pool.Sockets())}
	for i := range a.sockets {
		a.sockets[i] = socketArena{
			base:  base,
			next:  base + reserveBytes,
			limit: limit,
			free:  map[int][]pmem.Addr{},
		}
	}
	return a
}

// BaseOffset returns the arena's start offset (identical on every
// socket): 0 for the whole-device allocator, index*span for an arena.
// The first reserveBytes past it are never allocated.
func (a *Allocator) BaseOffset() uint64 { return a.base }

// roundSize aligns a request to the XPLine-friendly granularity: small
// objects to 64 B multiples, anything ≥256 B to 256 B multiples so
// objects never straddle more XPLines than necessary.
func roundSize(size int) int {
	if size <= 0 {
		panic("pmalloc: non-positive size")
	}
	if size < pmem.XPLineSize {
		return (size + pmem.CachelineSize - 1) &^ (pmem.CachelineSize - 1)
	}
	return (size + pmem.XPLineSize - 1) &^ (pmem.XPLineSize - 1)
}

// SetCarveRecorder installs record. It runs for every later carve of
// the line class with the socket's lock held, before any line of the
// carve is handed out, and must not allocate: a line of the carve can
// be published only after record returns. A record that panics (a power
// failure) leaves the carve untaken. The index that owns the arena
// installs it when it is created or opened, replacing the one a crashed
// predecessor left: an arena holds one index, whose superblock sits at
// the arena's base.
func (a *Allocator) SetCarveRecorder(record func(Carve)) { a.record.Store(&record) }

// CarveSlots bounds how many carves the arena can ever hold, over all
// its sockets: a carve directory of this many records never fills.
func (a *Allocator) CarveSlots() int {
	s := &a.sockets[0]
	return len(a.sockets) * int((s.limit-s.base-reserveBytes+carveBytes-1)/carveBytes)
}

// Alloc returns a block of at least size bytes on the given socket,
// aligned so that 256 B objects occupy exactly one XPLine.
func (a *Allocator) Alloc(socket, size int) (pmem.Addr, error) {
	size = roundSize(size)
	s := &a.sockets[socket]
	s.mu.Lock()
	defer s.mu.Unlock()
	return a.take(socket, s, size)
}

// AllocBatch fills dst with blocks of the given size, amortizing the
// arena lock for hot allocation paths (leaf splits under load).
func (a *Allocator) AllocBatch(socket, size int, dst []pmem.Addr) error {
	size = roundSize(size)
	s := &a.sockets[socket]
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range dst {
		addr, err := a.take(socket, s, size)
		if err != nil {
			// Roll back what this call took.
			for j := 0; j < i; j++ {
				s.free[size] = append(s.free[size], dst[j])
				s.inUse -= int64(size)
			}
			return err
		}
		dst[i] = addr
	}
	return nil
}

// take hands out one block of a rounded size on socket s (lock held):
// from the size's free list, else from the line class's carve, else
// from the bump region.
func (a *Allocator) take(socket int, s *socketArena, size int) (pmem.Addr, error) {
	if lst := s.free[size]; len(lst) > 0 {
		addr := lst[len(lst)-1]
		s.free[size] = lst[:len(lst)-1]
		s.inUse += int64(size)
		return addr, nil
	}
	if size == lineBytes {
		if s.carve == s.carveEnd {
			if err := a.carveLines(socket, s); err != nil {
				return pmem.NilAddr, err
			}
		}
		off := s.carve
		s.carve += lineBytes
		s.inUse += lineBytes
		return pmem.MakeAddr(socket, off), nil
	}
	// Align the bump pointer: XPLine alignment for XPLine-sized-and-up
	// classes, cacheline alignment otherwise.
	align := uint64(pmem.CachelineSize)
	if size >= pmem.XPLineSize {
		align = pmem.XPLineSize
	}
	aligned, err := s.bump(socket, align, uint64(size))
	if err != nil {
		return pmem.NilAddr, err
	}
	s.inUse += int64(size)
	return pmem.MakeAddr(socket, aligned), nil
}

// carveLines takes the line class's next carve from the bump region
// (lock held): up to 256 lines, fewer only where the arena ends.
// The recorder sees it before the bump pointer moves.
func (a *Allocator) carveLines(socket int, s *socketArena) error {
	aligned := (s.next + lineBytes - 1) &^ (lineBytes - 1)
	lines := min(carveBytes, s.limit-min(aligned, s.limit)) / lineBytes
	if lines == 0 {
		return fmt.Errorf("pmalloc: socket %d out of PM (%d in use, %d capacity)", socket, s.inUse, s.limit)
	}
	if record := a.record.Load(); record != nil {
		(*record)(Carve{pmem.MakeAddr(socket, aligned), int(lines)})
	}
	off, err := s.bump(socket, lineBytes, lines*lineBytes)
	if err != nil {
		return err
	}
	s.carve, s.carveEnd = off, off+lines*lineBytes
	return nil
}

// bump takes n bytes aligned to align from the bump region (lock held).
func (s *socketArena) bump(socket int, align, n uint64) (uint64, error) {
	aligned := (s.next + align - 1) &^ (align - 1)
	if aligned+n > s.limit {
		return 0, fmt.Errorf("pmalloc: socket %d out of PM (%d in use, %d capacity)", socket, s.inUse, s.limit)
	}
	s.wasted += int64(aligned - s.next)
	s.next = aligned + n
	return aligned, nil
}

// Free returns a block to its size-class free list. size must be the
// original request (it is re-rounded identically).
func (a *Allocator) Free(addr pmem.Addr, size int) {
	if addr.IsNil() {
		return
	}
	size = roundSize(size)
	s := &a.sockets[addr.Socket()]
	s.mu.Lock()
	s.free[size] = append(s.free[size], addr)
	s.inUse -= int64(size)
	s.mu.Unlock()
}

// InUseBytes reports bytes currently allocated on one socket.
func (a *Allocator) InUseBytes(socket int) int64 {
	s := &a.sockets[socket]
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.inUse
}

// TotalInUseBytes reports bytes currently allocated across all sockets
// (the "PM consumption" of Fig 18).
func (a *Allocator) TotalInUseBytes() int64 {
	var total int64
	for i := range a.sockets {
		total += a.InUseBytes(i)
	}
	return total
}

// SetBump advances a socket's bump pointer to at least off. Recovery
// uses it after rebuilding reachability from persistent structures so
// fresh allocations never overlap live data. Space below the new bump
// that is not reachable is leaked until reclaimed by structure-level GC
// (the chunk-based-allocation trade-off the paper adopts, §4.2).
func (a *Allocator) SetBump(socket int, off uint64) {
	s := &a.sockets[socket]
	s.mu.Lock()
	defer s.mu.Unlock()
	if off < s.base+reserveBytes {
		off = s.base + reserveBytes
	}
	if off > s.next {
		s.inUse += int64(off - s.next)
		s.next = off
	}
}

// HighWaterBytes reports how far the bump pointer has moved on a socket
// (peak footprint including free-listed blocks).
func (a *Allocator) HighWaterBytes(socket int) int64 {
	s := &a.sockets[socket]
	s.mu.Lock()
	defer s.mu.Unlock()
	return int64(s.next - s.base - reserveBytes)
}
