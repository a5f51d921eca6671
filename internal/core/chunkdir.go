package core

import (
	"cclbtree/internal/pmalloc"
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
//
// Right after the chunk slots lies a second region, the carve
// directory: one record per carve of the allocator's line class
// (pmalloc.Carve), appended in carve order and never removed, then a
// zero terminator. Every line a tree leaf or a hash overflow bucket
// occupies lies in a recorded carve, because a carve is recorded before
// any of its lines is handed out, so recovery reads the lines carve by
// carve in parallel instead of chasing the leaf list through PM. The
// record is only a hint: recovery admits a line only when the chain
// from the root reaches it, and reads a line outside every carve
// itself. Its capacity is the arena's carve bound
// (pmalloc.Allocator.CarveSlots), so it never fills.
type chunkDir struct {
	mu    classedLock
	t     *pmem.Thread
	base  pmem.Addr
	slots int

	slotOf map[pmem.Addr]int
	free   []int

	// carveSlots records fit in the carve directory; carveCount are in
	// use.
	carveSlots, carveCount int
}

// newChunkDir fronts the directory at base: slots chunk slots, then a
// carve directory of carveSlots records, carveCount of them in use.
func newChunkDir(t *pmem.Thread, base pmem.Addr, slots, carveSlots, carveCount int) *chunkDir {
	d := &chunkDir{t: t, base: base, slots: slots, slotOf: map[pmem.Addr]int{},
		carveSlots: carveSlots, carveCount: carveCount}
	d.free = make([]int, 0, slots)
	for i := slots - 1; i >= 0; i-- {
		d.free = append(d.free, i)
	}
	return d
}

// clearAll zeroes the chunk slots (a fresh tree, or a recovered one
// whose logs are replayed), and the carve directory's terminator while
// no carve is recorded: the word after the chunk slots.
func (d *chunkDir) clearAll() {
	defer d.mu.unlock(d.mu.lock())
	words := d.slots
	if d.carveCount == 0 {
		words++
	}
	d.t.WriteRange(d.base, make([]uint64, words))
	d.t.Persist(d.base, words*pmem.WordSize)
}

// recordCarve is the allocator's carve recorder: it appends c to the
// carve directory and persists it, with the zero terminator after it,
// before the allocator hands out any line of c.
func (d *chunkDir) recordCarve(c pmalloc.Carve) {
	defer d.mu.unlock(d.mu.lock())
	if d.carveCount == d.carveSlots {
		panic("core: carve directory full") // CarveSlots bounds every arena's carves
	}
	a := d.carveAddr(d.carveCount)
	d.t.Store(a, c.Word())
	d.t.Store(a.Add(pmem.WordSize), 0)
	d.t.Persist(a, 2*pmem.WordSize)
	d.carveCount++
}

// carveAddr is the address of carve record i.
func (d *chunkDir) carveAddr(i int) pmem.Addr { return d.base.Add(int64(8 * (d.slots + i))) }

func (d *chunkDir) register(chunk pmem.Addr) {
	defer d.mu.unlock(d.mu.lock())
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
	defer d.mu.unlock(d.mu.lock())
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

// readCarves loads the recorded carves from the carve directory after
// slots chunk slots at base, up to the terminator or carveSlots records
// (recovery path).
func readCarves(t *pmem.Thread, base pmem.Addr, slots, carveSlots int) []pmalloc.Carve {
	var out []pmalloc.Carve
	var line [pmem.CachelineSize / pmem.WordSize]uint64
	for i := 0; i < carveSlots; i += len(line) {
		words := line[:min(len(line), carveSlots-i)]
		t.ReadRange(base.Add(int64(8*(slots+i))), words)
		for _, w := range words {
			if w == 0 {
				return out
			}
			out = append(out, pmalloc.CarveOf(w))
		}
	}
	return out
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
