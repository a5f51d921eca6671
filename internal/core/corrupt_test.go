package core

import (
	"errors"
	"testing"

	"cclbtree/internal/pmem"
	"cclbtree/internal/pmleaf"
	"cclbtree/internal/wal"
)

// corruptWord persists one word of the crashed image.
func corruptWord(pool *pmem.Pool, off uint64, v uint64) {
	th := pool.NewThread(0)
	a := pmem.MakeAddr(0, off)
	th.Store(a, v)
	th.Persist(a, pmem.WordSize)
}

// crashedTree builds a small tree, crashes it, and returns the pool
// holding its persistent image.
func crashedTree(t *testing.T) *pmem.Pool {
	t.Helper()
	pool := fuzzPool()
	tr, err := New(pool, fuzzOpts(false))
	if err != nil {
		t.Fatal(err)
	}
	w := tr.NewWorker(0)
	for i := uint64(1); i <= 40; i++ {
		if err := w.Upsert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	tr.Freeze()
	pool.Crash()
	return pool
}

func TestRecoveryRejectsCorruptImage(t *testing.T) {
	cases := []struct {
		name string
		off  uint64 // superblock word offset
		v    uint64
	}{
		{"head leaf out of range", sbOffset + 8, ^uint64(0) >> 8},
		{"dir address out of range", sbOffset + 16, uint64(3) << 56},
		{"dir slots huge", sbOffset + 24, 1 << 50},
		{"chunk bytes unaligned", sbOffset + 32, 100},
		{"chunk bytes huge", sbOffset + 32, 1 << 40},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pool := crashedTree(t)
			corruptWord(pool, c.off, c.v)
			_, _, err := Open(pool, Options{}, 2)
			var ce *CorruptError
			if !errors.As(err, &ce) {
				t.Fatalf("Open = %v, want *CorruptError", err)
			}
		})
	}
}

func TestRecoveryDetectsLeafCycle(t *testing.T) {
	pool := crashedTree(t)
	// Point the head leaf's next pointer back at itself.
	th := pool.NewThread(0)
	sb := pmem.MakeAddr(0, sbOffset)
	headLeaf := pmem.Addr(th.Load(sb.Add(8)))
	meta := th.Load(headLeaf)
	bitmap, _ := pmleaf.UnpackMeta(meta)
	corruptWord(pool, headLeaf.Offset(), pmleaf.PackMeta(bitmap, headLeaf))
	_, _, err := Open(pool, Options{}, 2)
	var ce *CorruptError
	if !errors.As(err, &ce) {
		t.Fatalf("Open on cyclic leaf list = %v, want *CorruptError", err)
	}
}

func TestRecoveryCountsDroppedGarbageEntries(t *testing.T) {
	// Write a wal-check-valid record with an out-of-mode key word (a
	// probe-tagged word can never be appended) into a live chunk: the
	// scan must drop it, not replay or crash on it.
	pool := fuzzPool()
	tr, err := New(pool, fuzzOpts(false))
	if err != nil {
		t.Fatal(err)
	}
	w := tr.NewWorker(0)
	for i := uint64(1); i <= 5; i++ {
		if err := w.Upsert(i, i); err != nil {
			t.Fatal(err)
		}
	}
	tr.Freeze()
	pool.Crash()

	// Locate a registered chunk via the directory and plant the record
	// in its last slot.
	th := pool.NewThread(0)
	sb := pmem.MakeAddr(0, sbOffset)
	dirAddr := pmem.Addr(th.Load(sb.Add(16)))
	dirSlots := int(th.Load(sb.Add(24)))
	chunkBytes := int(th.Load(sb.Add(32)))
	chunks := readChunkDir(th, dirAddr, dirSlots)
	if len(chunks) == 0 {
		t.Fatal("no registered chunks")
	}
	slot := chunks[0].Add(int64(chunkBytes - chunkBytes%24 - 24))
	badKey := probeTag | 7
	th.Store(slot, badKey)
	th.Store(slot.Add(8), 1)
	th.Store(slot.Add(16), wal.EncodeTimestamp(badKey, 1, 99))
	th.Persist(slot, 24)

	_, st, err := Open(pool, Options{}, 2)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if st.EntriesDropped == 0 {
		t.Fatal("garbage entry not counted as dropped")
	}
}
