package core

import (
	"sync"

	"cclbtree/internal/obs"
	"cclbtree/internal/pmem"
)

// chunkDir is the persistent directory of live WAL chunks: a fixed PM
// array of chunk addresses (0 = empty slot). Registration happens once
// per 4 MB chunk, so the extra PM writes are negligible, and it is what
// lets recovery locate every log with nothing but the superblock.
//
// Stale (released-then-recycled) chunks that crash mid-transition are
// harmless either way: recovery filters every replayed entry by
// timestamp against its leaf (§3.3), so replaying a stale chunk is
// merely wasted work, and losing a just-acquired empty chunk loses no
// entries (Append persists the entry only after the chunk is
// registered).
type chunkDir struct {
	mu    sync.Mutex
	t     *pmem.Thread
	base  pmem.Addr
	slots int

	slotOf map[pmem.Addr]int
	free   []int

	// prof is the owning tree's lock profiler (nil when metrics are
	// off); every mu acquisition below is bracketed with it.
	prof *obs.LockProfiler
}

func newChunkDir(t *pmem.Thread, base pmem.Addr, slots int) *chunkDir {
	d := &chunkDir{t: t, base: base, slots: slots, slotOf: map[pmem.Addr]int{}}
	d.free = make([]int, 0, slots)
	for i := slots - 1; i >= 0; i-- {
		d.free = append(d.free, i)
	}
	return d
}

// clearAll zeroes the directory region (fresh-tree initialization).
func (d *chunkDir) clearAll() {
	tok := d.prof.Pre(obs.LockChunkDir)
	d.mu.Lock()
	tok = d.prof.Acquired(obs.LockChunkDir, tok)
	defer d.prof.Released(obs.LockChunkDir, tok)
	defer d.mu.Unlock()
	zero := make([]uint64, d.slots)
	d.t.WriteRange(d.base, zero)
	d.t.Persist(d.base, d.slots*pmem.WordSize)
}

func (d *chunkDir) register(chunk pmem.Addr) {
	tok := d.prof.Pre(obs.LockChunkDir)
	d.mu.Lock()
	tok = d.prof.Acquired(obs.LockChunkDir, tok)
	defer d.prof.Released(obs.LockChunkDir, tok)
	defer d.mu.Unlock()
	if len(d.free) == 0 {
		// Directory full: recovery would miss this chunk's entries.
		// With default sizing this is 16 GB of outstanding logs, far
		// past the GC trigger; treat as a configuration error.
		panic("core: chunk directory exhausted; raise Options.DirSlots or lower THlog")
	}
	slot := d.free[len(d.free)-1]
	d.free = d.free[:len(d.free)-1]
	d.slotOf[chunk] = slot
	a := d.base.Add(int64(8 * slot))
	d.t.Store(a, uint64(chunk))
	d.t.Persist(a, pmem.WordSize)
}

func (d *chunkDir) unregister(chunk pmem.Addr) {
	tok := d.prof.Pre(obs.LockChunkDir)
	d.mu.Lock()
	tok = d.prof.Acquired(obs.LockChunkDir, tok)
	defer d.prof.Released(obs.LockChunkDir, tok)
	defer d.mu.Unlock()
	slot, ok := d.slotOf[chunk]
	if !ok {
		return
	}
	delete(d.slotOf, chunk)
	d.free = append(d.free, slot)
	a := d.base.Add(int64(8 * slot))
	d.t.Store(a, 0)
	d.t.Persist(a, pmem.WordSize)
}

// readChunkDir loads the live chunk set from PM (recovery path).
func readChunkDir(t *pmem.Thread, base pmem.Addr, slots int) []pmem.Addr {
	words := make([]uint64, slots)
	t.ReadRange(base, words)
	var out []pmem.Addr
	for _, w := range words {
		if w != 0 {
			out = append(out, pmem.Addr(w))
		}
	}
	return out
}
