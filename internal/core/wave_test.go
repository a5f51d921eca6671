package core

import (
	"fmt"
	"math/rand"
	"testing"

	"cclbtree/internal/pmem"
	"cclbtree/internal/pmleaf"
	"cclbtree/internal/wal"
)

// waveImage is a crash image whose records overflow the default
// 2-slot buffers, as those of a tree written with Nbatch 8 can: keys
// 100, 200, … 100·keys written straight to their leaves (no buffer, so
// no records), then records appended to the log, acknowledged (each
// group fenced) and newer than every leaf stamp: an update of every
// step-th key and a new key beside it, and, with split set, twenty new
// keys of one leaf, whose group splits. When a leaf holds several
// step-th keys, its node's group overflows a 2-slot buffer and replay
// flushes it in a wave; when step exceeds a leaf's keys, every group
// fits its buffer.
type waveImage struct {
	img crashImage
	mut func(*pmem.Config)
	// want holds every key of the image at its last version.
	want map[uint64]uint64
	// groups counts the nodes the records route to: replay's groups;
	// over those of more than two records, which replay flushes in
	// waves.
	groups, over int
}

func newWaveImage(t *testing.T, keys, step int, split bool, mut func(*pmem.Config)) waveImage {
	t.Helper()
	tr, w := newTestTree(t, Options{GC: GCOff, Nbatch: -1, ChunkBytes: 64 << 10}, mut)
	wi := waveImage{mut: mut, want: map[uint64]uint64{}}
	for i := 1; i <= keys; i++ {
		k := uint64(100 * i)
		if err := w.Upsert(k, k); err != nil {
			t.Fatal(err)
		}
		wi.want[k] = k
	}
	ts := tr.clock.Now(0) + 1
	var ents []wal.Entry
	nodes := map[*bufferNode]int{}
	record := func(k, v uint64) {
		ents = append(ents, wal.Entry{Key: k, Value: v, Timestamp: ts})
		ts++
		wi.want[k] = v
		nodes[tr.index.Find(w.t, k)]++
	}
	for i := step; i <= keys-LeafSlots; i += step { // the last leaf may be full
		record(uint64(100*i), uint64(100*i+1))
		record(uint64(100*i+50), uint64(100*i+50))
	}
	if split {
		low := uint64(100 * (keys / 2))
		for j := uint64(1); j <= 20; j++ {
			record(low+j, low+j)
		}
	}
	wi.groups = len(nodes)
	for _, recs := range nodes {
		if recs > 2 {
			wi.over++
		}
	}
	for len(ents) > 0 {
		g := ents[:min(16, len(ents))]
		if err := w.logs[0].AppendBatch(w.t, g); err != nil {
			t.Fatal(err)
		}
		ents = ents[len(g):]
	}
	tr.Freeze()
	tr.Pool().Crash()
	wi.img = saveImage(t, tr.Pool())
	return wi
}

// load loads the image into a fresh pool.
func (wi waveImage) load(t *testing.T) *pmem.Pool {
	return wi.img.loadInto(t, newTestPool(wi.mut))
}

// check reports the first difference between tr and want: a key a
// lookup misses or reads at another version, or a key a scan finds that
// was never written or twice ("" when none). Lookups filter a line's
// slots by fingerprint; scans read every valid slot.
func (wi waveImage) check(tr *Tree) string {
	w := tr.NewWorker(0)
	for k, want := range wi.want {
		if v, ok := w.Lookup(k); !ok || v != want {
			return fmt.Sprintf("key %d reads %d,%v, last version %d", k, v, ok, want)
		}
	}
	out := make([]KV, len(wi.want)+1)
	n := w.Scan(1, len(out), out)
	for _, kv := range out[:n] {
		if v, ok := wi.want[kv.Key]; !ok || v != kv.Value {
			return fmt.Sprintf("scan reads key %d as %d (written %v, last version %d)", kv.Key, kv.Value, ok, v)
		}
	}
	if n != len(wi.want) {
		return fmt.Sprintf("scan finds %d keys, %d written", n, len(wi.want))
	}
	return ""
}

// TestCrashInsideReplayWave cuts power at every flush of a replay that
// runs in several waves, at 1 and 2 threads, with one splitting group
// (an image whose groups overflow their buffers, newWaveImage),
// and tears every line the replaying threads flushed but did not fence
// (Pool.TearPending) before the crash: a header published in a wave is
// pending until the wave's last fence, and so is, until the wave's
// first fence, the data behind it. Reopening must find every
// acknowledged write at its last version and nothing else. Dropping
// every unfenced line, as crashOpenAt does, cannot tell whether the
// wave fenced its data before its headers; the tear can. -short takes
// 80 strided points on one thread.
func TestCrashInsideReplayWave(t *testing.T) {
	wi := newWaveImage(t, 2400, 3, true, func(c *pmem.Config) { c.DeviceBytes = 1 << 20 })
	threadCounts, points := []int{1, 2}, int64(0)
	if testing.Short() {
		threadCounts, points = []int{1}, 80
	}
	for _, threads := range threadCounts {
		pool := wi.load(t)
		base := pool.FlushCalls()
		tr, st, err := Open(pool, Options{}, threads)
		if err != nil {
			t.Fatal(err)
		}
		if msg := wi.check(tr); msg != "" {
			t.Fatalf("%d threads, uninterrupted recovery: %s", threads, msg)
		}
		if perThread := wi.over / threads; perThread <= 2*replayWave {
			t.Fatalf("%d overflowing groups on %d threads replay in under 3 waves each", wi.over, threads)
		}
		if tr.Counters().Splits == 0 {
			t.Fatal("no replayed group split")
		}
		flushes := pool.FlushCalls() - base
		t.Logf("%d threads: %d groups (%d overflowing), %d records, %d recovery flushes",
			threads, wi.groups, wi.over, st.EntriesReplayed, flushes)
		stride := int64(1)
		if points > 0 && flushes > points {
			stride = flushes / points
		}
		var lost []string
		for k := int64(1); k <= flushes; k += stride {
			pool := wi.load(t)
			at := pool.FlushCalls() + k
			pool.FailWhen(func(fp pmem.FaultPoint) bool { return fp.Seq == at })
			var tr *Tree
			died := pmem.Survive(func() { tr, _, err = Open(pool, Options{}, threads) })
			pool.FailWhen(nil)
			if err != nil {
				t.Fatalf("flush %d: %v", k, err)
			}
			if died {
				pool.TearPending(k)
				pool.Crash()
				if tr, _, err = Open(pool, Options{}, threads); err != nil {
					t.Fatalf("flush %d: reopen: %v", k, err)
				}
			}
			if msg := wi.check(tr); msg != "" {
				lost = append(lost, fmt.Sprintf("flush %d: %s", k, msg))
			}
		}
		if len(lost) > 0 {
			t.Errorf("%d threads: %d of %d crash points lost or invented writes; first: %s",
				threads, len(lost), (flushes+stride-1)/stride, lost[0])
		}
	}
}

// TestReplayFenceBudget counts the fences replay issues on one thread,
// and what it writes. Groups that fit their buffers go into slots: no
// fence, no media write of the recovery scope, and no charge but each
// group's lock and Owns check (two DRAM accesses). G groups that
// overflow their buffers and do not split take 2⌈G/32⌉ fences, a data
// fence and a header fence per wave of replayWave groups.
func TestReplayFenceBudget(t *testing.T) {
	for _, c := range []struct {
		name string
		step int
		over bool // every group overflows, else every group fits
	}{{"fitting", 3 * LeafSlots, false}, {"overflowing", 2, true}} {
		wi := newWaveImage(t, 1200, c.step, false, func(c *pmem.Config) { c.DeviceBytes = 1 << 20 })
		if wi.groups == 0 || (wi.over == wi.groups) != c.over || (wi.over == 0) == c.over {
			t.Fatalf("%s: %d of %d groups overflow", c.name, wi.over, wi.groups)
		}
		pool := wi.load(t)
		base := pool.Stats().MediaWriteByScope[pmem.ScopeRecovery]
		tr, st, err := Open(pool, Options{}, 1)
		if err != nil {
			t.Fatal(err)
		}
		if msg := wi.check(tr); msg != "" {
			t.Fatalf("%s: %s", c.name, msg)
		}
		if d, most := st.ReplayEndNS-st.RouteEndNS, int64(wi.groups)*2*pool.Config().Cost.DRAMAccess; !c.over && d > most {
			t.Errorf("%s: replay of %d groups took %d ns, its DRAM charges at most %d", c.name, wi.groups, d, most)
		}
		if s := tr.Counters().Splits; s != 0 {
			t.Fatalf("%s: replay split %d times", c.name, s)
		}
		replay := tr.workers[0].t // phase 4's worker registers first
		fences := replay.FenceNS() / pool.Config().Cost.FenceIssue
		pool.DrainXPBuffers()
		written := pool.Stats().MediaWriteByScope[pmem.ScopeRecovery] - base
		want := 2 * int64((wi.over+replayWave-1)/replayWave)
		if !c.over && written != 0 {
			t.Errorf("%s: %d groups replayed into slots wrote %d recovery media bytes", c.name, wi.groups, written)
		}
		if fences != want {
			t.Errorf("%s: %d groups replayed with %d fences, want %d", c.name, wi.groups, fences, want)
		}
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

// TestReplayWaveCombinesInXPBuffer holds a replay wave inside one DIMM's
// XPBuffer: each staged line's data flush and header flush combine into
// one media write, so replaying overflowing groups that do not split
// writes about one 256 B line per group. A wave of more lines than the
// buffer holds evicts each line between its two flushes and writes it
// twice.
func TestReplayWaveCombinesInXPBuffer(t *testing.T) {
	mut := func(c *pmem.Config) {
		c.Sockets, c.DIMMsPerSocket, c.XPBufferLines, c.DeviceBytes = 1, 1, 64, 2<<20
	}
	wi := newWaveImage(t, 1200, 2, false, mut)
	pool := wi.load(t)
	tr, _, err := Open(pool, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	if s := tr.Counters().Splits; s != 0 {
		t.Fatalf("replay split %d times", s)
	}
	if wi.over != wi.groups {
		t.Fatalf("%d of %d groups overflow their buffers", wi.over, wi.groups)
	}
	pool.DrainXPBuffers()
	per := float64(pool.Stats().MediaWriteByScope[pmem.ScopeRecovery]) / float64(wi.groups)
	t.Logf("%d groups: %.1f recovery media bytes per group", wi.groups, per)
	if per > 1.1*LeafBytes {
		t.Fatalf("replay wrote %.1f media bytes per group, want at most %.1f", per, 1.1*LeafBytes)
	}
}
