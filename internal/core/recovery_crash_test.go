package core

import (
	"bytes"
	"testing"

	"cclbtree/internal/pmem"
	"cclbtree/internal/pmleaf"
	"cclbtree/internal/wal"
)

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

// LinkEmptyLeaf links a fresh empty leaf behind the head leaf, so the
// image carries the shape recovery's leaf walk unlinks (one persisted
// meta word on the predecessor) before it replays the log. The crash suite's tree-row caller
// (package core_test) sweeps the recovery of that image.
func LinkEmptyLeaf(t *testing.T, tr *Tree) {
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
