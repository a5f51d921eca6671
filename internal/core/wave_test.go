package core

import (
	"fmt"
	"math/rand"
	"testing"

	"cclbtree/internal/pmem"
	"cclbtree/internal/pmleaf"
)

// TestReplayFenceBudget holds replay of groups that fit their buffers,
// as every group of an image reopened with the Nbatch it was written
// with does, to their slots: no fence, no split, no media write of the
// recovery scope, and no charge but each group's lock and Owns check
// (two DRAM accesses).
func TestReplayFenceBudget(t *testing.T) {
	img, want := placementImage(t, 0)
	r, err := route(img.loadInto(t, newTestPool(nil)), Options{}, 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range r.groups {
		if len(g.recs) > g.n.nbatch() {
			t.Fatalf("a group of %d records overflows its %d-slot buffer", len(g.recs), g.n.nbatch())
		}
	}
	groups := int64(len(r.groups))
	if groups == 0 {
		t.Fatal("the image replays no group")
	}
	pool := img.loadInto(t, newTestPool(nil))
	base := pool.Stats().MediaWriteByScope[pmem.ScopeRecovery]
	tr, st, err := Open(pool, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	w := tr.NewWorker(0)
	for k, v := range want {
		if got, ok := w.Lookup(k); !ok || got != v {
			t.Fatalf("key %#x reads %d,%v, want %d", k, got, ok, v)
		}
	}
	if d, most := st.ReplayEndNS-st.RouteEndNS, groups*2*pool.Config().Cost.DRAMAccess; d > most {
		t.Errorf("replay of %d groups took %d ns, its DRAM charges at most %d", groups, d, most)
	}
	if s := tr.Counters().Splits; s != 0 {
		t.Errorf("replay split %d times", s)
	}
	replay := tr.workers[0].t // phase 4's worker registers first
	if fences := replay.FenceNS() / pool.Config().Cost.FenceIssue; fences != 0 {
		t.Errorf("%d groups replayed with %d fences", groups, fences)
	}
	pool.DrainXPBuffers()
	if written := pool.Stats().MediaWriteByScope[pmem.ScopeRecovery] - base; written != 0 {
		t.Errorf("%d groups replayed into slots wrote %d recovery media bytes", groups, written)
	}
}

// TestGroupTriggersShareOneWave counts the fences of groups whose runs
// all end in trigger writes that do not split: two for any number of
// runs, a data fence and a header fence, and one more for the log when
// a run fits its buffer and is logged.
func TestGroupTriggersShareOneWave(t *testing.T) {
	tr, w := newTestTree(t, Options{GC: GCOff}, nil)
	for _, i := range rand.New(rand.NewSource(5)).Perm(2000) {
		if err := w.Upsert(uint64(100*(i+1)), 1); err != nil {
			t.Fatal(err)
		}
	}
	// Nodes whose leaf takes their buffer and three new keys without a
	// split and stays at least half full, so no merge follows.
	var room []*bufferNode
	for n := tr.head.next.Load(); n != nil; n = n.next.Load() {
		var img pmleaf.Image
		img.Read(w.t, n.leaf)
		pos, _, _ := unpackHdr(n.hdr.Load())
		if c := img.Count() + pos + 3; c >= LeafSlots/2 && c <= LeafSlots {
			room = append(room, n)
		}
	}
	fenceNS := tr.Pool().Config().Cost.FenceIssue
	for _, c := range []struct {
		runs   int
		logged bool
		want   int64
	}{{1, false, 2}, {8, false, 2}, {8, true, 3}} {
		if len(room) < c.runs+1 {
			t.Fatalf("%d nodes with room, want %d", len(room), c.runs+1)
		}
		var ops []BatchOp
		for _, n := range room[:c.runs] {
			// Three new keys overflow a two-slot buffer: a trigger write.
			for j := uint64(1); j <= 3; j++ {
				ops = append(ops, BatchOp{Key: n.lowKey + j, Value: j})
			}
		}
		if c.logged {
			// A key of the next node: a buffer slot and a record.
			ops = append(ops, BatchOp{Key: room[c.runs].lowKey + 4, Value: 4})
		}
		room = room[c.runs+1:]
		ctr, f0 := tr.Counters(), w.t.FenceNS()
		if err := w.ApplyBatch(ops); err != nil {
			t.Fatal(err)
		}
		after := tr.Counters()
		if after.Splits != ctr.Splits || after.Merges != ctr.Merges {
			t.Fatalf("%d runs: the group split or merged", c.runs)
		}
		if got := after.TriggerWrites - ctr.TriggerWrites; got != uint64(c.runs) {
			t.Fatalf("%d runs: %d trigger writes", c.runs, got)
		}
		if fences := (w.t.FenceNS() - f0) / fenceNS; fences != c.want {
			t.Errorf("%d trigger runs (logged op %v): %d fences, want %d", c.runs, c.logged, fences, c.want)
		}
	}
}

// TestCrashInsideSharedWave cuts power at every flush of one group
// whose runs end in trigger writes that share a wave, each absorbing
// the two acknowledged writes its node's buffer held, and tears the
// lines the writer flushed but did not fence to every prefix
// (Thread.TearPendingPrefix) before the crash. A header published in
// the wave stays pending until the wave's last fence, and a torn one
// can show its new bitmap and stamp over the fingerprints it held
// before: the stamp gates the absorbed writes' records out of replay,
// and a lookup filters their slots by the stale fingerprints. Stage
// writes a shared wave's fingerprints with its data for that reason
// (Staged.Shared). Every write acknowledged before the group must read
// at its last version at every point, and each of the group's own ops
// at its old or its new state. -short tears three prefixes a point.
func TestCrashInsideSharedWave(t *testing.T) {
	mut := func(c *pmem.Config) { c.DeviceBytes = 1 << 20 }
	opts := Options{GC: GCOff, ChunkBytes: 16 << 10}
	tr, w := newTestTree(t, opts, mut)
	want := map[uint64]uint64{}
	for _, i := range rand.New(rand.NewSource(5)).Perm(2000) {
		k := uint64(100 * (i + 1))
		if err := w.Upsert(k, k); err != nil {
			t.Fatal(err)
		}
		want[k] = k
	}
	// Eight nodes with an empty buffer whose leaf takes two buffered
	// writes and one more key without a split: each buffers two writes,
	// and the group adds the third.
	var ops []BatchOp
	for n := tr.head.next.Load(); n != nil && len(ops) < 8; n = n.next.Load() {
		var img pmleaf.Image
		img.Read(w.t, n.leaf)
		if pos, _, _ := unpackHdr(n.hdr.Load()); pos > 0 || img.Count()+3 > LeafSlots {
			continue
		}
		for j := uint64(1); j <= 2; j++ {
			if err := w.Upsert(n.lowKey+j, j); err != nil {
				t.Fatal(err)
			}
			want[n.lowKey+j] = j
		}
		ops = append(ops, BatchOp{Key: n.lowKey + 3, Value: 3})
	}
	if len(ops) < 8 {
		t.Fatalf("%d nodes with room, want 8", len(ops))
	}
	tr.Freeze()
	tr.Pool().Crash()
	img := saveImage(t, tr.Pool())

	// open recovers the image into a fresh pool; the buffered writes
	// go back into their slots.
	open := func() (*pmem.Pool, *Tree) {
		pool := img.loadInto(t, newTestPool(mut))
		tr, _, err := Open(pool, opts, 1)
		if err != nil {
			t.Fatal(err)
		}
		return pool, tr
	}
	pool, tr := open()
	base, ctr := pool.FlushCalls(), tr.Counters()
	if err := tr.NewWorker(0).ApplyBatch(ops); err != nil {
		t.Fatal(err)
	}
	if got := tr.Counters().TriggerWrites - ctr.TriggerWrites; got != uint64(len(ops)) {
		t.Fatalf("the group made %d trigger writes, want %d", got, len(ops))
	}
	flushes := pool.FlushCalls() - base
	tr.Freeze()

	prefixes := []int{0, 1, 2, 3, 4, 5, 6, 7, 8}
	if testing.Short() {
		prefixes = []int{1, 2, 4}
	}
	var lost []string
	for k := int64(1); k <= flushes; k++ {
		for _, prefix := range prefixes {
			pool, tr := open()
			w := tr.NewWorker(0)
			at := pool.FlushCalls() + k
			pool.FailWhen(func(fp pmem.FaultPoint) bool { return fp.Seq == at })
			var err error
			died := pmem.Survive(func() { err = w.ApplyBatch(ops) })
			pool.FailWhen(nil)
			if err != nil || !died {
				t.Fatalf("flush %d: the group returned %v, died %v", k, err, died)
			}
			w.t.TearPendingPrefix(prefix)
			tr.Freeze()
			pool.Crash()
			tr2, _, err := Open(pool, opts, 1)
			if err != nil {
				t.Fatalf("flush %d, prefix %d: reopen: %v", k, prefix, err)
			}
			w2 := tr2.NewWorker(0)
			for key, v := range want {
				if got, ok := w2.Lookup(key); !ok || got != v {
					lost = append(lost, fmt.Sprintf("flush %d, prefix %d: key %d reads %d,%v, want %d",
						k, prefix, key, got, ok, v))
				}
			}
			for _, op := range ops {
				if got, ok := w2.Lookup(op.Key); ok && got != op.Value {
					lost = append(lost, fmt.Sprintf("flush %d, prefix %d: in-flight key %d reads %d",
						k, prefix, op.Key, got))
				}
			}
			tr2.Freeze()
		}
	}
	if len(lost) > 0 {
		t.Errorf("%d lost or invented writes over %d flushes; first: %s", len(lost), flushes, lost[0])
	}
}
