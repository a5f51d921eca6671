package core

import (
	"math/rand"
	"testing"

	"cclbtree/internal/pmem"
	"cclbtree/internal/pmleaf"
)

// crashDriver is one way of issuing the crash matrix's write stream:
// groups of size ops (keys unique within a group, so each in-flight op
// has exactly one pre-state and one post-state to check), each handed
// to issue. Singles and one-op groups draw the identical stream — the
// write protocol runs them as the same program.
type crashDriver struct {
	name         string
	seed         int64
	groups, size int
	issue        func(w *Worker, ops []BatchOp) error
	// points caps the crash points sampled per configuration (a full
	// per-boundary sweep is O(total²) work); short is the -short cap.
	points, short int
}

func issueSingle(w *Worker, ops []BatchOp) error {
	if ops[0].Delete {
		return w.Delete(ops[0].Key)
	}
	return w.Upsert(ops[0].Key, ops[0].Value)
}

var (
	crashSingles  = crashDriver{"singles", 99, 2500, 1, issueSingle, 200, 50}
	crashGroups24 = crashDriver{"groups-of-24", 424242, 150, 24, (*Worker).ApplyBatch, 150, 40}
	crashGroups1  = crashDriver{"groups-of-1", 99, 2500, 1, (*Worker).ApplyBatch, 100, 25}
)

// crashWorkload yields the deterministic group sequence for (seed,
// groups, size) over a space-key range: one delete in six.
func crashWorkload(seed int64, groups, size, space int, fn func(ops []BatchOp)) {
	rng := rand.New(rand.NewSource(seed))
	for g := 0; g < groups; g++ {
		seen := map[uint64]bool{}
		var ops []BatchOp
		for len(ops) < size {
			k := uint64(rng.Intn(space) + 1)
			if seen[k] {
				continue
			}
			seen[k] = true
			if rng.Intn(6) == 0 {
				ops = append(ops, BatchOp{Key: k, Delete: true})
			} else {
				ops = append(ops, BatchOp{Key: k, Value: uint64(rng.Intn(1<<30) + 1)})
			}
		}
		fn(ops)
	}
}

// crashMatrix cuts power at successive flushes of a fixed workload —
// inside WAL appends and group commits, (coalesced) trigger flushes,
// logless splits, merges, GC — and verifies after recovery that
//
//  1. every op of every group completed before the failing one is
//     durable with its latest value (the §3.3 durability contract:
//     non-trigger writes persist their log entry, trigger writes
//     persist the whole batch, before returning), and
//  2. each op of the in-flight group is atomic on its own: its key
//     reads as either the previous state or the new one, never garbage
//     — a group is atomic per op, not as a unit.
//
// The sweep runs each write driver in both persistence domains (ADR
// tears the lines flushed but not fenced at the failure, then rolls
// back what did not drain; eADR keeps every store), with and without
// background GC. GC-enabled sweeps rely on the sticky
// FailWhen trigger: the fault may fire first on the GC goroutine (which
// recovers and exits), and stickiness guarantees the workload thread
// dies at its own next flush instead of completing operations on a
// dead machine.
func crashMatrix(t *testing.T, drivers ...crashDriver) {
	cases := []struct {
		name string
		mode pmem.Mode
		gc   GCPolicy
	}{
		{"adr-gcoff", pmem.ADR, GCOff},
		{"eadr-gcoff", pmem.EADR, GCOff},
		{"adr-gc", pmem.ADR, GCLocalityAware},
		{"eadr-gc", pmem.EADR, GCLocalityAware},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			for _, d := range drivers {
				t.Run(d.name, func(t *testing.T) {
					// First, count the workload's flushes (with GC on the
					// count varies run to run; it only bounds the sweep).
					total := runCrashPoint(t, d, c.mode, c.gc, 0)
					if total < 100 {
						t.Fatalf("workload too small: %d flushes", total)
					}
					points := d.points
					if testing.Short() {
						points = d.short
					}
					step := 1
					if total > points {
						step = total / points
					}
					for point := int64(1); point <= int64(total); point += int64(step) {
						runCrashPoint(t, d, c.mode, c.gc, point)
					}
				})
			}
		})
	}
}

// The one matrix has two entry points — single writes, and groups
// through ApplyBatch — so either side can be selected with -run and the
// names CI history knows keep their meaning; scripts/check.sh's
// 'TestCrashAtEveryFlushBoundary' pattern runs both.
func TestCrashAtEveryFlushBoundary(t *testing.T) { crashMatrix(t, crashSingles) }
func TestCrashAtEveryFlushBoundaryBatched(t *testing.T) {
	crashMatrix(t, crashGroups24, crashGroups1)
}

// TestCrashHeaderDrainsBeforeData pins §4.2's data-then-metadata order
// of a leaf flush. Power fails at the header persist of a trigger write
// after the header line has reached media — hardware may write a dirty
// line back at any time — but before the worker's own write-backs
// complete. The new header's timestamp gates the WAL records of the
// buffered writes the flush absorbed, so those acknowledged writes
// survive only if their slots were durable before the header was
// written.
func TestCrashHeaderDrainsBeforeData(t *testing.T) {
	pool := newTestPool(nil)
	opts := Options{GC: GCOff, ChunkBytes: 16 << 10}
	tr, err := New(pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := tr.NewWorker(0)
	// Two buffer slots: keys 1–3 fill leaf slots 0–2 (slots 0–1 share
	// the header's cacheline), 4 and 5 are buffered and logged, and 6
	// triggers the flush that writes 4–6 into slots 3–5, all on the
	// leaf's second cacheline.
	for k := uint64(1); k <= 5; k++ {
		if err := w.Upsert(k, 10*k); err != nil {
			t.Fatal(err)
		}
	}
	leaf := tr.head.leaf
	hdrLine := leaf.Offset() / pmem.CachelineSize
	pool.FailWhen(func(fp pmem.FaultPoint) bool {
		return fp.Socket == leaf.Socket() && fp.Line == hdrLine
	})
	if !pmem.Survive(func() { _ = w.Upsert(6, 60) }) {
		t.Fatal("trigger write survived the armed header fault")
	}
	tr.Freeze()
	pool.FailWhen(nil)
	// The header line drains; the data lines still wait on the worker's
	// fence and are lost with the power.
	pool.NewThread(leaf.Socket()).Persist(leaf, pmleaf.HeaderBytes)
	pool.Crash()

	tr2, _, err := Open(pool, opts, 1)
	if err != nil {
		t.Fatalf("recovery rejected the image: %v", err)
	}
	defer tr2.Freeze()
	w2 := tr2.NewWorker(0)
	for k := uint64(1); k <= 5; k++ {
		if v, ok := w2.Lookup(k); !ok || v != 10*k {
			t.Fatalf("acknowledged key %d recovered as %d,%v, want %d", k, v, ok, 10*k)
		}
	}
}

// TestCrashSplitLeavesBeforeMeta pins the split's order: the new right
// leaves are durable before the splitting leaf's meta word points at
// them. Power fails at the meta persist of the head leaf's first split,
// after the meta line has reached media; every acknowledged write must
// survive recovery.
func TestCrashSplitLeavesBeforeMeta(t *testing.T) {
	pool := newTestPool(nil)
	opts := Options{GC: GCOff, ChunkBytes: 16 << 10}
	tr, err := New(pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := tr.NewWorker(0)
	leaf := tr.head.leaf
	hdrLine := leaf.Offset() / pmem.CachelineSize
	pool.FailWhen(func(fp pmem.FaultPoint) bool {
		return fp.Scope == pmem.ScopeSplit && fp.Socket == leaf.Socket() && fp.Line == hdrLine
	})
	acked := map[uint64]uint64{}
	for k := uint64(1); k <= 4*LeafSlots; k++ {
		if pmem.Survive(func() { err = w.Upsert(k, 10*k) }) {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		acked[k] = 10 * k
	}
	if !pool.FaultFired() {
		t.Fatal("the head leaf never split")
	}
	tr.Freeze()
	pool.FailWhen(nil)
	pool.NewThread(leaf.Socket()).Persist(leaf, pmleaf.HeaderBytes)
	pool.Crash()

	tr2, _, err := Open(pool, opts, 1)
	if err != nil {
		t.Fatalf("recovery rejected the image: %v", err)
	}
	defer tr2.Freeze()
	w2 := tr2.NewWorker(0)
	for k, want := range acked {
		if v, ok := w2.Lookup(k); !ok || v != want {
			t.Fatalf("acknowledged key %d recovered as %d,%v, want %d", k, v, ok, want)
		}
	}
}

// runCrashPoint runs d's workload on a fresh tree with power failing at
// the point-th flush from here (0: never), then recovers and checks the
// contract above. It returns the number of flushes the run issued.
func runCrashPoint(t *testing.T, d crashDriver, mode pmem.Mode, gc GCPolicy, point int64) int {
	t.Helper()
	pool := newTestPool(func(c *pmem.Config) { c.Mode = mode })
	opts := Options{ChunkBytes: 8 << 10, GC: gc}
	tr, err := New(pool, opts)
	if err != nil {
		t.Fatal(err)
	}
	w := tr.NewWorker(0)

	ref := map[uint64]uint64{} // state after the last COMPLETED group
	var inFlight []BatchOp     // the group in flight at the crash
	completed := 0

	// FlushCalls counts every Flush/Persist call in both domains (eADR
	// moves no data but still counts) since pool creation, matching
	// FaultPoint.Seq numbering; the point is relative to here.
	base := pool.FlushCalls()
	crashed := pmem.Survive(func() {
		if point > 0 {
			pool.FailWhen(func(fp pmem.FaultPoint) bool { return fp.Seq == base+point })
		}
		crashWorkload(d.seed, d.groups, d.size, 300, func(ops []BatchOp) {
			inFlight = ops
			if err := d.issue(w, ops); err != nil {
				t.Error(err)
				panic(pmem.PowerFailure{})
			}
			for _, op := range ops {
				if op.Delete {
					delete(ref, op.Key)
				} else {
					ref[op.Key] = op.Value
				}
			}
			inFlight = nil
			completed++
		})
	})
	// Join background GC before losing power: the fault may have fired
	// there (the GC goroutine recovers and exits), or — when the point
	// lies beyond this run's flush count — GC may still be running.
	tr.Freeze()
	pool.FailWhen(nil)
	flushes := int(pool.FlushCalls() - base)
	if !crashed {
		// The counting run, or a fault point beyond this run's flush
		// count (counts vary slightly run to run): nothing to check.
		return flushes
	}

	// Every line flushed but not fenced at the failure persists fully,
	// not at all, or as a torn prefix (seeded by the point): a header
	// published in a shared wave is pending until the wave's last fence.
	pool.TearPending(point)
	pool.Crash()
	tr2, _, err := Open(pool, opts, 1)
	if err != nil {
		t.Fatalf("point %d: recovery failed after %d groups: %v", point, completed, err)
	}
	defer tr2.Freeze()
	w2 := tr2.NewWorker(0)

	// ref reflects every group BEFORE the one in flight, so it is also
	// the in-flight ops' pre-state.
	inGroup := map[uint64]BatchOp{}
	for _, op := range inFlight {
		inGroup[op.Key] = op
	}
	for k, v := range ref {
		if _, ok := inGroup[k]; ok {
			continue // checked below
		}
		got, ok := w2.Lookup(k)
		if !ok || got != v {
			t.Fatalf("point %d: completed key %d lost (%d,%v want %d) after %d groups",
				point, k, got, ok, v, completed)
		}
	}
	// Per-op atomicity of the in-flight group: each key independently
	// pre-state or post-state.
	for k, op := range inGroup {
		preVal, preOK := ref[k]
		got, ok := w2.Lookup(k)
		oldState := ok == preOK && (!ok || got == preVal)
		var newState bool
		if op.Delete {
			newState = !ok
		} else {
			newState = ok && got == op.Value
		}
		if !oldState && !newState {
			t.Fatalf("point %d: in-flight key %d inconsistent: got (%d,%v), old=(%d,%v), new=(del=%v val=%d)",
				point, k, got, ok, preVal, preOK, op.Delete, op.Value)
		}
	}
	// Structure is sound: a full scan must be sorted and within range.
	out := make([]KV, 400)
	n := w2.Scan(1, 400, out)
	var prev uint64
	for i := 0; i < n; i++ {
		if out[i].Key <= prev {
			t.Fatalf("point %d: scan disorder after recovery", point)
		}
		prev = out[i].Key
	}
	return flushes
}
