package core

import (
	"fmt"
	"math/rand"
	"testing"

	"cclbtree/internal/pmem"
)

// The tests of the window between a recovery and the first GC round
// after it: replay puts the surviving records back into buffer slots,
// and the log chunks that hold them stay registered until that round
// copies or flushes the slots (DESIGN.md "Crash consistency").

// TestCrashTwiceBeforeGC recovers an image whose surviving records all
// fit their buffers, crashes before any write or GC round, and
// recovers again, three rounds in all, on fixed and var-KV trees: every
// round reads every acknowledged write and replays the same records,
// and no round writes a line. The records live only in the log chunks
// Open kept registered; releasing those chunks at Open loses them at
// the second crash.
func TestCrashTwiceBeforeGC(t *testing.T) {
	for _, varKV := range []bool{false, true} {
		t.Run(fmt.Sprintf("var=%v", varKV), func(t *testing.T) {
			img, check := recoveryCrashImage(t, varKV, false, false)
			pool := img.load(t)
			var first RecoveryStats
			for round := range 3 {
				before := pool.Stats().MediaWriteByScope[pmem.ScopeRecovery]
				tr, st, err := Open(pool, Options{}, 2)
				if err != nil {
					t.Fatalf("round %d: %v", round, err)
				}
				if msg := check(tr); msg != "" {
					t.Fatalf("round %d: %s", round, msg)
				}
				tr.Freeze()
				pool.DrainXPBuffers()
				if w := pool.Stats().MediaWriteByScope[pmem.ScopeRecovery] - before; w != 0 {
					t.Fatalf("round %d: recovery wrote %d media bytes", round, w)
				}
				if round == 0 {
					first = *st
					if st.EntriesReplayed == 0 {
						t.Fatal("the image replays no record")
					}
				} else if st.EntriesReplayed != first.EntriesReplayed || st.Leaves != first.Leaves {
					t.Fatalf("round %d replayed %d records into %d leaves; round 0: %d into %d",
						round, st.EntriesReplayed, st.Leaves, first.EntriesReplayed, first.Leaves)
				}
				pool.Crash()
			}
		})
	}
}

// TestCrashInFirstGCRound cuts power at every flush of the first GC
// round after a recovery, under either collecting policy: the
// locality-aware round copies the recovered slots into an I-log before
// it releases the chunks their records are in, and the naive round
// flushes them into their leaves first. Recovering from any point must
// read every acknowledged write. -short takes 10 strided points a
// policy (the kill matrix runs it once per core mutant, under -race
// too).
func TestCrashInFirstGCRound(t *testing.T) {
	img, check := recoveryCrashImage(t, false, false, false)
	for _, policy := range []GCPolicy{GCLocalityAware, GCNaive} {
		t.Run(policy.String(), func(t *testing.T) {
			opts := Options{GC: policy}
			pool := img.load(t)
			tr, st, err := Open(pool, opts, 2)
			if err != nil {
				t.Fatal(err)
			}
			base := pool.FlushCalls()
			tr.ForceGC()
			flushes := pool.FlushCalls() - base
			if msg := check(tr); msg != "" {
				t.Fatalf("uninterrupted round: %s", msg)
			}
			c := tr.Counters()
			if c.GCRuns != 1 || (policy == GCLocalityAware && c.GCCopiedEntries != uint64(st.EntriesReplayed)) {
				t.Fatalf("%d rounds copied %d of %d recovered records", c.GCRuns, c.GCCopiedEntries, st.EntriesReplayed)
			}
			if got := tr.LogFootprintBytes(); policy == GCNaive && got != 0 {
				t.Fatalf("the naive round left %d log bytes", got)
			}
			t.Logf("%d replayed records, %d flushes in the round", st.EntriesReplayed, flushes)
			stride := int64(1)
			if testing.Short() && flushes > 10 {
				stride = flushes / 10
			}
			var lost []string
			for k := int64(1); k <= flushes; k += stride {
				pool := img.load(t)
				tr, _, err := Open(pool, opts, 2)
				if err != nil {
					t.Fatal(err)
				}
				at := pool.FlushCalls() + k
				pool.FailWhen(func(fp pmem.FaultPoint) bool { return fp.Seq == at })
				tr.ForceGC()
				tr.Freeze()
				pool.FailWhen(nil)
				pool.Crash()
				if tr, _, err = Open(pool, opts, 2); err != nil {
					t.Fatalf("flush %d: reopen: %v", k, err)
				}
				if msg := check(tr); msg != "" {
					lost = append(lost, fmt.Sprintf("flush %d: %s", k, msg))
				}
			}
			if len(lost) > 0 {
				t.Errorf("%d of %d crash points lost acknowledged writes; first: %s",
					len(lost), (flushes+stride-1)/stride, lost[0])
			}
		})
	}
}

// TestCrashRoundsBoundTheLog runs ten crash–recover rounds on a tree
// with GC off, with writes in between: the chunks each recovery finds
// registered stay bounded, because Open releases every chunk that
// holds no record it put back into a slot. Keeping every chunk would
// add a round's log to the count each round.
func TestCrashRoundsBoundTheLog(t *testing.T) {
	opts := Options{GC: GCOff, ChunkBytes: 16 << 10}
	tr, w := newTestTree(t, opts, nil)
	pool := tr.Pool()
	rng := rand.New(rand.NewSource(3))
	want := map[uint64]uint64{}
	most := 0
	for round := range 10 {
		for range 1500 {
			k, v := uint64(rng.Intn(1000)+1), rng.Uint64()>>2|1
			if err := w.Upsert(k, v); err != nil {
				t.Fatal(err)
			}
			want[k] = v
		}
		tr.Freeze()
		pool.Crash()
		var st *RecoveryStats
		var err error
		if tr, st, err = Open(pool, opts, 2); err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		w = tr.NewWorker(0)
		for k, v := range want {
			if got, ok := w.Lookup(k); !ok || got != v {
				t.Fatalf("round %d: key %d reads %d,%v, want %d", round, k, got, ok, v)
			}
		}
		most = max(most, st.ChunksScanned)
		t.Logf("round %d: %d chunks registered, %d records replayed", round, st.ChunksScanned, st.EntriesReplayed)
	}
	// A round logs about two chunks (16 KB holds 682 records); the
	// count settles at four.
	if most > 6 {
		t.Fatalf("a recovery found %d chunks registered, want at most 6", most)
	}
}
