package core

import (
	"testing"

	"cclbtree/internal/pmem"
)

// The tests below pin the one ordering rule of records, line stamps and
// GC copies (Worker.Stamp): every tick drawn for a node outranks every
// earlier one, whichever socket drew it. Each runs on one goroutine with
// workers on sockets of different skew (the clock's synthesized skew of
// socket s is s ticks), back to back, so each raw tick is known in
// advance; crash-named so the kill matrix's unit column runs them.

// newSkewTree is a tree on a four-socket pool with GC off, so no tick is
// drawn but the ones a test makes, and a worker on every socket.
func newSkewTree(t *testing.T) (*Tree, [4]*Worker) {
	t.Helper()
	tr, _ := newTestTree(t, Options{GC: GCOff}, func(c *pmem.Config) { c.Sockets = 4 })
	var ws [4]*Worker
	for s := range ws {
		ws[s] = tr.NewWorker(s)
	}
	return tr, ws
}

// crashLookup crashes tr, recovers it on one thread and looks key up.
func crashLookup(t *testing.T, tr *Tree, key uint64) uint64 {
	t.Helper()
	tr2, _ := crashAndReopen(t, tr, 1)
	v, _ := tr2.NewWorker(0).Lookup(key)
	return v
}

func mustDo(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// TestCrashStampTriggerThenRecord: a trigger write on socket 1 stamps
// the leaf at the raw tick that the next record, drawn on socket 0, also
// reads. The record must still outrank the stamp, or recovery gates the
// acknowledged update out as already flushed.
func TestCrashStampTriggerThenRecord(t *testing.T) {
	tr, ws := newSkewTree(t)
	mustDo(t, ws[0].Upsert(1, 10))
	mustDo(t, ws[0].Upsert(2, 20))
	mustDo(t, ws[1].Upsert(3, 30)) // buffer full: trigger write, leaf stamped
	mustDo(t, ws[0].Upsert(1, 99)) // buffered, logged
	if v := crashLookup(t, tr, 1); v != 99 {
		t.Fatalf("key 1 recovered as %d, want 99", v)
	}
}

// TestCrashStampRecordThenTrigger: a record drawn on socket 3 must not
// outrank the stamp of a later trigger write on socket 0 that carried a
// newer value for its key unlogged, or replay overwrites that value.
func TestCrashStampRecordThenTrigger(t *testing.T) {
	tr, ws := newSkewTree(t)
	mustDo(t, ws[3].Upsert(1, 1))
	mustDo(t, ws[3].Upsert(2, 2))
	// Key 1 takes its slot, key 3 finds none: the run rides one trigger
	// write with no record.
	mustDo(t, ws[0].ApplyBatch([]BatchOp{{Key: 1, Value: 3}, {Key: 3, Value: 3}}))
	if v := crashLookup(t, tr, 1); v != 3 {
		t.Fatalf("key 1 recovered as %d, want 3", v)
	}
}

// TestCrashStampSameKeyRecords: of two records of one key, the later
// one (socket 0) must outrank the earlier (socket 3), or recovery's
// newest-record dedup keeps the older value.
func TestCrashStampSameKeyRecords(t *testing.T) {
	tr, ws := newSkewTree(t)
	mustDo(t, ws[3].Upsert(1, 1))
	mustDo(t, ws[0].Upsert(1, 2))
	if v := crashLookup(t, tr, 1); v != 2 {
		t.Fatalf("key 1 recovered as %d, want 2", v)
	}
}

// TestCrashStampSplitInheritsFloor: a split on socket 3 stamps its new
// leaf from the splitting node; the new node's first record, drawn on
// socket 0 right after, must outrank that stamp.
func TestCrashStampSplitInheritsFloor(t *testing.T) {
	tr, ws := newSkewTree(t)
	ops := make([]BatchOp, 15)
	for i := range ops {
		ops[i] = BatchOp{Key: uint64(i + 1), Value: uint64(i + 1)}
	}
	mustDo(t, ws[3].ApplyBatch(ops)) // splits: keys 8..15 move to a new leaf
	if tr.Counters().Splits != 1 {
		t.Fatalf("%d splits, want 1", tr.Counters().Splits)
	}
	mustDo(t, ws[0].Upsert(12, 99))
	if v := crashLookup(t, tr, 12); v != 99 {
		t.Fatalf("key 12 recovered as %d, want 99", v)
	}
}

// TestCrashStampMergeRaisesFloor: a node holds a record drawn on socket
// 3, then a trigger write on socket 0 flushes a newer value of its key
// unlogged and merges the node into its left sibling. The sibling's new
// stamp must outrank the absorbed node's record, or replay overwrites
// the newer value.
func TestCrashStampMergeRaisesFloor(t *testing.T) {
	tr, ws := newSkewTree(t)
	ops := make([]BatchOp, 15)
	for i := range ops {
		ops[i] = BatchOp{Key: uint64(i + 1), Value: uint64(i + 1)}
	}
	mustDo(t, ws[0].ApplyBatch(ops)) // leaves {1..7} and {8..15}
	mustDo(t, ws[0].Delete(15))
	mustDo(t, ws[3].Upsert(8, 100))
	// Key 8 takes its slot, key 14 finds none: one unlogged trigger write
	// leaves six live keys, and the node merges left.
	mustDo(t, ws[0].ApplyBatch([]BatchOp{{Key: 8, Value: 200}, {Key: 14, Delete: true}}))
	if tr.Counters().Merges != 1 {
		t.Fatalf("%d merges, want 1", tr.Counters().Merges)
	}
	if v := crashLookup(t, tr, 8); v != 200 {
		t.Fatalf("key 8 recovered as %d, want 200", v)
	}
}
