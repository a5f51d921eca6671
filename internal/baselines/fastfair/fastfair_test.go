package fastfair

import (
	"testing"

	"cclbtree/internal/index/indextest"
)

func TestConformance(t *testing.T) {
	indextest.Run(t, Factory(), indextest.Options{})
}

func TestHighXBIUnderRandomWrites(t *testing.T) {
	// The motivating measurement (Fig 3): sorted in-PM leaves shift on
	// every insert, producing far more media traffic per user byte
	// than a log (≈1) or CCL-BTree.
	pool := indextest.Pool()
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	h := tr.NewHandle(0)
	rng := uint64(88172645463325252)
	next := func() uint64 {
		rng ^= rng << 13
		rng ^= rng >> 7
		rng ^= rng << 17
		return rng%(1<<22) + 1
	}
	for i := 0; i < 20000; i++ {
		_ = h.Upsert(next(), 7)
	}
	pool.ResetStats()
	for i := 0; i < 20000; i++ {
		_ = h.Upsert(next(), 9)
	}
	pool.AddUserBytes(20000 * 16)
	pool.DrainXPBuffers()
	s := pool.Stats()
	if amp := s.XBIAmplification(); amp < 4 {
		t.Fatalf("FAST&FAIR random-insert XBI = %.1f; expected heavy amplification", amp)
	}
}

func TestShiftCostGrowsWithInsertPosition(t *testing.T) {
	// FAST's sorted-leaf shifting: inserting at the FRONT of a full-ish
	// leaf must flush more cachelines than appending at the END.
	cost := func(keys []uint64, probe uint64) uint64 {
		pool := indextest.Pool()
		tr, err := New(pool)
		if err != nil {
			t.Fatal(err)
		}
		h := tr.NewHandle(0)
		for _, k := range keys {
			_ = h.Upsert(k, 1)
		}
		pool.ResetStats()
		_ = h.Upsert(probe, 1)
		return pool.Stats().XPBufWriteBytes
	}
	keys := []uint64{100, 200, 300, 400, 500, 600, 700, 800, 900, 1000}
	front := cost(keys, 50)  // shifts all ten pairs
	back := cost(keys, 1100) // shifts nothing
	if front <= back {
		t.Fatalf("front insert flushed %d B, back %d B; shifting must cost more", front, back)
	}
}
