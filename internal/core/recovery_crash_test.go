package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"cclbtree/internal/pmem"
	"cclbtree/internal/pmleaf"
	"cclbtree/internal/wal"
)

// TestCrashInsideRecovery cuts power at recovery's own flushes: leaf
// unlinks, replay batches, splits and the chunk-directory reset. The
// crash image (500 inserts, then 250 updates, every write acknowledged)
// is built once per configuration and loaded into a fresh pool per
// crash point; one image also carries an empty leaf behind the head, so
// that recovery's unlink persist is crashed too. -short takes 8
// strided points on one thread. Each point arms the fault at the k-th
// flush of Open, crashes when Open carries the power failure back, reopens, and
// requires every acknowledged write. Replaying record by record fails
// here: a leaf stamped by the first of its records gates the rest out
// of the next recovery as stale.
func TestCrashInsideRecovery(t *testing.T) {
	threadCounts, points := []int{1, 2}, int64(0)
	if testing.Short() {
		threadCounts, points = []int{1}, 8
	}
	cases := []struct{ varKV, gc, emptyLeaf bool }{
		{false, false, false}, {false, true, false}, {true, false, false}, {true, true, false},
		{false, false, true},
	}
	for _, c := range cases {
		name := fmt.Sprintf("var=%v/gc=%v", c.varKV, c.gc)
		if c.emptyLeaf {
			name = "empty-leaf"
		}
		t.Run(name, func(t *testing.T) {
			img, check := recoveryCrashImage(t, c.varKV, c.gc, c.emptyLeaf)
			for _, threads := range threadCounts {
				pool := img.load(t)
				base := pool.FlushCalls()
				tr, _, err := Open(pool, Options{}, threads)
				if err != nil {
					t.Fatal(err)
				}
				if msg := check(tr); msg != "" {
					t.Fatalf("uninterrupted recovery: %s", msg)
				}
				flushes := pool.FlushCalls() - base
				t.Logf("%d threads: %d recovery flushes", threads, flushes)
				stride := int64(1)
				if points > 0 && flushes > points {
					stride = flushes / points
				}
				var lost []string
				for k := int64(1); k <= flushes; k += stride {
					if msg := crashOpenAt(t, img.load(t), threads, k, check); msg != "" {
						lost = append(lost, fmt.Sprintf("flush %d: %s", k, msg))
					}
				}
				if len(lost) > 0 {
					t.Errorf("%d threads: %d of %d crash points lost acknowledged writes; first: %s",
						threads, len(lost), (flushes+stride-1)/stride, lost[0])
				}
			}
		})
	}
}

// TestCrashLogScanInParts recovers a log that holds many versions of
// every key with 1 to 4 threads. The scan cuts the chunk set into parts
// whose boundaries fall inside chunks and between a key's versions, and
// every thread count must replay the newest version of each key. With
// two or more threads the scan of this log outlasts a host scheduling
// slice beside the leaf walk, so a thread the walk and a scanner shared
// would trip StrictPersist's concurrent-use check even on a loaded host.
func TestCrashLogScanInParts(t *testing.T) {
	const keys = 2000
	versions := uint64(300)
	if raceTestEnabled {
		// The race detector sees a shared thread without a long scan,
		// and would take half a minute over this one.
		versions = 30
	}
	for threads := 1; threads <= 4; threads++ {
		tr, w := newTestTree(t, Options{GC: GCOff, ChunkBytes: 64 << 10}, nil)
		for k := uint64(1); k <= keys; k++ {
			if err := w.Upsert(k, 1); err != nil {
				t.Fatal(err)
			}
		}
		// The versions go straight to the log, each group fenced: every
		// record is acknowledged, newer than every leaf stamp, and
		// newest at the highest version.
		base := tr.clock.Now(0)
		ents := make([]wal.Entry, 0, keys)
		for v := uint64(2); v <= versions; v++ {
			ents = ents[:0]
			for k := uint64(1); k <= keys; k++ {
				ents = append(ents, wal.Entry{Key: k, Value: v, Timestamp: base + v*keys + k})
			}
			if err := w.logs[0].AppendBatch(w.t, ents); err != nil {
				t.Fatal(err)
			}
		}
		tr2, st := crashAndReopen(t, tr, threads)
		if st.EntriesReplayed != keys {
			t.Errorf("%d threads: replayed %d records, want %d", threads, st.EntriesReplayed, keys)
		}
		w2 := tr2.NewWorker(0)
		for k := uint64(1); k <= keys; k++ {
			if v, ok := w2.Lookup(k); !ok || v != versions {
				t.Fatalf("%d threads: key %d recovered as %d,%v, want %d", threads, k, v, ok, versions)
			}
		}
	}
}

// crashOpenAt opens pool with a power failure armed at the k-th flush
// of recovery, then crashes and reopens it, and returns check's verdict
// on the second recovery. A recovery that finishes before flush k (the
// count varies with two threads) is checked as it is.
func crashOpenAt(t *testing.T, pool *pmem.Pool, threads int, k int64, check func(*Tree) string) string {
	t.Helper()
	base := pool.FlushCalls()
	pool.FailWhen(func(fp pmem.FaultPoint) bool { return fp.Seq == base+k })
	var tr *Tree
	var err error
	died := pmem.Survive(func() { tr, _, err = Open(pool, Options{}, threads) })
	pool.FailWhen(nil)
	if err != nil {
		t.Fatalf("flush %d: %v", k, err)
	}
	if died {
		pool.Crash()
		if tr, _, err = Open(pool, Options{}, threads); err != nil {
			t.Fatalf("flush %d: reopen: %v", k, err)
		}
	}
	return check(tr)
}

// linkEmptyLeaf links a fresh empty leaf behind the head leaf, so the
// image carries the shape recovery's leaf walk unlinks (one persisted
// meta word on the predecessor) before it replays the log.
func linkEmptyLeaf(t *testing.T, tr *Tree) {
	t.Helper()
	th := tr.pool.NewThread(0)
	var head pmleaf.Image
	head.Read(th, pmem.Addr(th.Load(tr.sbAddr().Add(8))))
	e, err := tr.newLeaf(th, 0)
	if err != nil {
		t.Fatal(err)
	}
	empty := pmleaf.Image{Addr: e}
	empty.SetMeta(pmleaf.PackMeta(0, head.Next()))
	pmleaf.WriteWhole(th, &empty)
	head.SetMeta(pmleaf.PackMeta(head.Bitmap(), e))
	th.Store(pmleaf.MetaAddr(head.Addr), head.Meta())
	th.Persist(pmleaf.MetaAddr(head.Addr), pmem.WordSize)
}

// crashImage is a saved persistent image, one buffer per socket.
type crashImage [][]byte

// saveImage saves pool's persistent image.
func saveImage(t *testing.T, pool *pmem.Pool) crashImage {
	t.Helper()
	img := make(crashImage, pool.Sockets())
	for s := range img {
		var b bytes.Buffer
		if err := pool.SavePersistent(s, &b); err != nil {
			t.Fatal(err)
		}
		img[s] = b.Bytes()
	}
	return img
}

func (img crashImage) load(t *testing.T) *pmem.Pool {
	t.Helper()
	return img.loadInto(t, newRecoveryCrashPool())
}

// loadInto loads the image into pool, a fresh pool at least as large as
// the one it was saved from.
func (img crashImage) loadInto(t *testing.T, pool *pmem.Pool) *pmem.Pool {
	t.Helper()
	for s, b := range img {
		if err := pool.LoadPersistent(s, bytes.NewReader(b)); err != nil {
			t.Fatal(err)
		}
	}
	return pool
}

func newRecoveryCrashPool() *pmem.Pool {
	return newTestPool(func(c *pmem.Config) { c.DeviceBytes = 512 << 10 })
}

// recoveryCrashImage runs the workload on a fresh tree, optionally
// followed by one locality-GC round, crashes, and returns the saved
// image with a check that reports the first acknowledged write a
// recovered tree lost ("" when none).
func recoveryCrashImage(t *testing.T, varKV, gc, emptyLeaf bool) (crashImage, func(*Tree) string) {
	t.Helper()
	pool := newRecoveryCrashPool()
	opts := Options{VarKV: varKV, ChunkBytes: 16 << 10, GC: GCOff}
	if gc {
		opts.GC = GCLocalityAware
	}
	tr, err := New(pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := tr.NewWorker(0)
	const keys = 500
	want := make([]uint64, keys+1)
	put := func(k, v uint64) {
		var err error
		if varKV {
			err = putVar(w, varKey(int(k)), varVal(int(v)))
		} else {
			err = w.Upsert(k, v)
		}
		if err != nil {
			t.Fatal(err)
		}
		want[k] = v
	}
	rng := rand.New(rand.NewSource(31))
	for _, i := range rng.Perm(keys) {
		put(uint64(i+1), uint64(i+1))
	}
	for i := 0; i < keys/2; i++ {
		k := uint64(rng.Intn(keys) + 1)
		put(k, want[k]+keys)
	}
	if gc {
		tr.ForceGC()
	}
	tr.Freeze()
	if emptyLeaf {
		linkEmptyLeaf(t, tr)
	}
	pool.Crash()
	img := saveImage(t, pool)
	check := func(tr *Tree) string {
		w := tr.NewWorker(0)
		for k := uint64(1); k <= keys; k++ {
			if varKV {
				if v, ok := w.LookupVar(varKey(int(k))); !ok || !bytes.Equal(v, varVal(int(want[k]))) {
					return fmt.Sprintf("key %d reads %q,%v, want %q", k, v, ok, varVal(int(want[k])))
				}
			} else if v, ok := w.Lookup(k); !ok || v != want[k] {
				return fmt.Sprintf("key %d reads %d,%v, want %d", k, v, ok, want[k])
			}
		}
		return ""
	}
	return img, check
}
