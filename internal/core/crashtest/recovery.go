package crashtest

import (
	"fmt"
	"math/rand"
	"testing"

	"cclbtree/internal/core"
	"cclbtree/internal/pmem"
)

// InsideRecovery cuts power at every flush of a recovery (leaf unlinks,
// replay, splits, the chunk directory's releases) of each row's image,
// without and with a GC round before the crash (SweepRecovery).
func InsideRecovery(t *testing.T, rows ...Row) {
	for _, r := range rows {
		t.Run(r.Name, func(t *testing.T) {
			for _, gc := range []bool{false, true} {
				t.Run(fmt.Sprintf("gc=%v", gc), func(t *testing.T) { SweepRecovery(t, NewImage(t, r, gc, nil)) })
			}
		})
	}
}

// SweepRecovery arms a power failure at each flush of img's recovery in
// turn, at 1 and 2 threads, crashes when it fires, recovers again, and
// requires every acknowledged write. It fails when recovery issues no
// flush, as it would crash nowhere. -short takes 8 strided points on
// one thread. Replaying record by record fails here: a line stamped by
// the first of its records gates the rest out of the next recovery as
// stale.
func SweepRecovery(t *testing.T, img *Image) {
	t.Helper()
	threadCounts := []int{1, 2}
	if testing.Short() {
		threadCounts = []int{1}
	}
	for _, threads := range threadCounts {
		pool := img.load(t)
		base := pool.FlushCalls()
		tr, _ := img.open(t, pool, core.GCLocalityAware, threads)
		if msg := img.lost(tr); msg != "" {
			t.Fatalf("uninterrupted recovery: %s", msg)
		}
		tr.Freeze()
		flushes := pool.FlushCalls() - base
		t.Logf("%d threads: %d recovery flushes", threads, flushes)
		if flushes == 0 {
			t.Fatalf("%d threads: recovery issued no flush to crash at", threads)
		}
		img.row.sweep(t, flushes, 0, 8, 0, func(k int64) (bool, string) {
			pool := img.load(t)
			armAt(pool, k)
			var tr *core.Tree
			pmem.Survive(func() { tr, _ = img.open(t, pool, core.GCLocalityAware, threads) })
			// A recovery that finished before flush k (the count varies
			// with two threads) is checked as it is.
			died := pool.FaultFired()
			if died {
				crash(pool, k)
				tr, _ = img.open(t, pool, core.GCLocalityAware, threads)
			}
			pool.FailWhen(nil)
			defer tr.Freeze()
			return died, img.lost(tr)
		})
	}
}

// TwiceBeforeGC recovers an image whose surviving records all fit their
// buffers, crashes before any write or GC round, and recovers again,
// three rounds in all: every round reads every acknowledged write and
// replays the same records into the same number of lines, and no round
// writes a line. The records live only in the log chunks Open kept
// registered; releasing those chunks at Open loses them at the second
// crash.
func TwiceBeforeGC(t *testing.T, rows ...Row) {
	for _, r := range rows {
		t.Run(r.Name, func(t *testing.T) {
			img := NewImage(t, r, false, nil)
			pool := img.load(t)
			var first core.RecoveryStats
			for round := range 3 {
				before := pool.Stats().MediaWriteByScope[pmem.ScopeRecovery]
				tr, st := img.open(t, pool, core.GCLocalityAware, 2)
				if msg := img.lost(tr); msg != "" {
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
					t.Fatalf("round %d replayed %d records into %d lines; round 0: %d into %d",
						round, st.EntriesReplayed, st.Leaves, first.EntriesReplayed, first.Leaves)
				}
				pool.Crash()
			}
		})
	}
}

// InFirstGCRound cuts power at every flush of the first GC round after
// a recovery, under either collecting policy: the locality-aware round
// copies the recovered slots into an I-log before it releases the
// chunks their records are in, and the naive round flushes them into
// their lines first. Recovering from any point must read every
// acknowledged write. -short takes 10 strided points a policy, a Light
// row 40.
func InFirstGCRound(t *testing.T, rows ...Row) {
	for _, policy := range []core.GCPolicy{core.GCLocalityAware, core.GCNaive} {
		t.Run(policy.String(), func(t *testing.T) {
			for _, r := range rows {
				t.Run(r.Name, func(t *testing.T) { firstGCRound(t, NewImage(t, r, false, nil), policy) })
			}
		})
	}
}

func firstGCRound(t *testing.T, img *Image, policy core.GCPolicy) {
	pool := img.load(t)
	tr, st := img.open(t, pool, policy, 2)
	base := pool.FlushCalls()
	tr.ForceGC()
	flushes := pool.FlushCalls() - base
	if msg := img.lost(tr); msg != "" {
		t.Fatalf("uninterrupted round: %s", msg)
	}
	c := tr.Counters()
	if c.GCRuns != 1 || (policy == core.GCLocalityAware && c.GCCopiedEntries != uint64(st.EntriesReplayed)) {
		t.Fatalf("%d rounds copied %d of %d recovered records", c.GCRuns, c.GCCopiedEntries, st.EntriesReplayed)
	}
	if got := tr.LogFootprintBytes(); policy == core.GCNaive && got != 0 {
		t.Fatalf("the naive round left %d log bytes", got)
	}
	tr.Freeze()
	t.Logf("%d replayed records, %d flushes in the round", st.EntriesReplayed, flushes)
	img.row.sweep(t, flushes, 0, 10, 40, func(k int64) (bool, string) {
		pool := img.load(t)
		tr, _ := img.open(t, pool, policy, 2)
		armAt(pool, k)
		tr.ForceGC()
		tr.Freeze()
		died := crash(pool, k)
		tr, _ = img.open(t, pool, policy, 2)
		defer tr.Freeze()
		return died, img.lost(tr)
	})
}

// RoundsBoundTheLog runs ten crash–recover rounds with GC off and
// writes in between: the chunks each recovery finds registered stay
// bounded, because Open releases every chunk that holds no record it
// put back into a slot. Keeping every chunk would add a round's log to
// the count each round.
func RoundsBoundTheLog(t *testing.T, rows ...Row) {
	for _, r := range rows {
		t.Run(r.Name, func(t *testing.T) {
			const keys = 1000
			opts := r.options(16<<10, core.GCOff)
			pool := newPool(pmem.ADR, 8<<20)
			tr, w := r.create(t, pool, opts)
			rng := rand.New(rand.NewSource(3))
			want := map[uint64]uint64{}
			most := 0
			for round := range 10 {
				for range 1500 {
					k, v := uint64(rng.Intn(keys)+1), rng.Uint64()>>2|1
					r.put(t, w, k, v)
					want[k] = v
				}
				tr.Freeze()
				pool.Crash()
				var st *core.RecoveryStats
				tr, st = r.open(t, pool, opts, 2)
				if msg := r.lost(tr, keys, want); msg != "" {
					t.Fatalf("round %d: %s", round, msg)
				}
				w = tr.NewWorker(0)
				most = max(most, st.ChunksScanned)
				t.Logf("round %d: %d chunks registered, %d records replayed", round, st.ChunksScanned, st.EntriesReplayed)
			}
			tr.Freeze()
			// A round logs about two chunks (16 KB holds 682 records); the
			// count settles at four.
			if most > 6 {
				t.Fatalf("a recovery found %d chunks registered, want at most 6", most)
			}
		})
	}
}

// MidGC starts a GC round of each policy and freezes and crashes while
// it is likely in flight, ten times a row (three on a Light row unless
// -crashtest.full); every write must survive. The naive round runs
// under the stop-the-world lock, so the strict lock-order and scope
// checks see its registration and its scope here too. The directory is
// created with the round's policy and a trigger no load reaches, so
// only the explicit start runs one.
func MidGC(t *testing.T, rows ...Row) {
	for _, policy := range []core.GCPolicy{core.GCLocalityAware, core.GCNaive} {
		t.Run(policy.String(), func(t *testing.T) {
			for _, r := range rows {
				t.Run(r.Name, func(t *testing.T) {
					const n = 5000
					opts := r.options(4096, policy)
					opts.THlog = 1e9
					trials := 10
					if r.Light && !*full {
						trials = 3
					}
					for trial := range trials {
						pool := newPool(pmem.ADR, 8<<20)
						tr, w := r.create(t, pool, opts)
						want := make(map[uint64]uint64, n)
						for k := uint64(1); k <= n; k++ {
							r.put(t, w, k, k)
							want[k] = k
						}
						tr.StartGCAsync() // freeze races with the round
						tr.Freeze()
						pool.Crash()
						tr, _ = r.open(t, pool, r.options(4096, core.GCLocalityAware), 2)
						if msg := r.lost(tr, n, want); msg != "" {
							t.Fatalf("trial %d: after a mid-GC crash %s", trial, msg)
						}
						tr.Freeze()
					}
				})
			}
		})
	}
}

// InsideCarveRecord cuts power at every flush of a load that crosses
// several carves of the line class: the carve records among them, the
// line writes that follow each record and the publications of those
// lines. Every point must recover every acknowledged write, nothing
// that was never written, and reach no line outside a recorded carve: a
// carve is durable before any line of it can be published, so the link
// pass finds every line in discovery's table. A sweep takes at most
// carvePoints strided points, -short and a Light row 40.
func InsideCarveRecord(t *testing.T, rows ...Row) {
	for _, r := range rows {
		t.Run(r.Name, func(t *testing.T) {
			opts := r.options(64<<10, core.GCOff)
			fresh := func() (*pmem.Pool, *core.Tree, *core.Worker) {
				pool := newPool(pmem.ADR, 2<<20)
				tr, w := r.create(t, pool, opts)
				return pool, tr, w
			}
			pool, tr, w := fresh()
			base := pool.FlushCalls()
			var keys uint64
			r.carveLoad(tr, w, &keys)
			tr.Freeze()
			flushes := pool.FlushCalls() - base
			t.Logf("%d keys, %d flushes", keys, flushes)
			r.sweep(t, flushes+1, carvePoints, 40, 40, func(k int64) (bool, string) {
				pool, tr, w := fresh()
				armAt(pool, k)
				var acked uint64
				pmem.Survive(func() { r.carveLoad(tr, w, &acked) })
				tr.Freeze()
				died := crash(pool, k)
				tr, st := r.open(t, pool, opts, 2)
				defer tr.Freeze()
				if st.UncarvedLines != 0 {
					return died, fmt.Sprintf("the chains reached %d lines outside every recorded carve", st.UncarvedLines)
				}
				// Keys 1…acked must all be there; a key of the group the
				// crash cut may be, but only with its own value, and no key
				// past it.
				w = tr.NewWorker(0)
				for key := uint64(1); key <= acked+2*carveGroup; key++ {
					if v, ok := r.read(w, key); (ok && v != key) || (!ok && key <= acked) || (ok && key > acked+carveGroup) {
						return died, fmt.Sprintf("key %d reads %d,%v (acknowledged up to %d)", key, v, ok, acked)
					}
				}
				return died, ""
			})
		})
	}
}

const (
	carveGroup = 16
	// carvePoints caps the carve sweep at about every flush of the
	// fixed-key tree's load (1,164): the var-KV tree's load persists its
	// blobs one by one (13,516 flushes), and the hash table's publishes
	// each chain bucket a group walks (47,668).
	carvePoints = 1200
)

// carveLoad drives groups of carveGroup ascending keys, each written
// with its own key as value, through w until the directory holds three
// carves of lines (3 × 256) more than it started with. It keeps in acked
// the highest key of the last group that returned: every key up to it
// was acknowledged. A power failure stops it where it struck.
func (r Row) carveLoad(tr *core.Tree, w *core.Worker, acked *uint64) {
	ops := make([]core.BatchOp, carveGroup)
	for k, end := uint64(1), tr.LeafCount()+3*256; tr.LeafCount() <= end; {
		for i := range ops {
			ops[i] = r.op(k, k)
			k++
		}
		if err := w.ApplyBatch(ops); err != nil {
			panic(err)
		}
		*acked = k - 1
	}
}
