package cclbtree

import (
	"runtime"
	"testing"

	"cclbtree/internal/core"
	"cclbtree/internal/pmem"
)

// TestSessionWriteAllocCeiling holds the public write entries to the
// ceiling core.TestUpsertAllocCeiling sets for the tree under them:
// Session.Put and Session.Apply of 64-op groups, on scattered keys with
// splits all over the tree, may allocate only what the core write path
// does — a slab chunk per 64 new leaves, an inner node per ~20 — so the
// session, shard routing and batch staging add nothing per op. Counted
// from MemStats because AllocsPerRun truncates to whole objects.
func TestSessionWriteAllocCeiling(t *testing.T) {
	if raceTestEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	const warm, n, group, ceiling = 4_096, 61_440, 64, 0.03
	key := func(i uint64) uint64 { return i*0x9e3779b97f4a7c15&core.MaxValue | 1 }
	writers := map[string]func(s *Session, b *Batch, from, to uint64) error{
		"Put": func(s *Session, _ *Batch, from, to uint64) error {
			for i := from; i < to; i++ {
				if err := s.Put(key(i), i+1); err != nil {
					return err
				}
			}
			return nil
		},
		"Apply64": func(s *Session, b *Batch, from, to uint64) error {
			for ; from < to; from += group {
				b.Reset()
				for i := from; i < from+group; i++ {
					b.Put(key(i), i+1)
				}
				if err := s.Apply(b); err != nil {
					return err
				}
			}
			return nil
		},
	}
	for name, write := range writers {
		for _, shards := range []int{1, 2} {
			db, err := New(Config{
				Shards:   shards,
				GC:       GCOff,
				Platform: pmem.Config{Sockets: 1, DIMMsPerSocket: 2, DeviceBytes: 128 << 20},
			})
			if err != nil {
				t.Fatal(err)
			}
			s, b := db.Session(0), new(Batch)
			if err := write(s, b, 0, warm); err != nil { // grow the scratch of every layer
				t.Fatal(err)
			}
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			err = write(s, b, warm, warm+n)
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			var splits uint64
			for i := 0; i < shards; i++ {
				splits += db.ShardCounters(i).Splits
			}
			if splits < n/20 {
				t.Fatalf("%s shards=%d: only %d splits in %d writes: the split path was not exercised", name, shards, splits, n)
			}
			avg := float64(after.Mallocs-before.Mallocs) / n
			t.Logf("%s shards=%d: %.4f objects/op", name, shards, avg)
			if avg > ceiling {
				t.Errorf("%s shards=%d: writes allocate %.4f objects/op over %d scattered keys, want <= %v", name, shards, avg, n, ceiling)
			}
			db.Close()
		}
	}
}
