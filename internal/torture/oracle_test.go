package torture

import (
	"strings"
	"testing"
)

// oracle tests drive checkDurablePrefix with hand-built histories and
// explicit invoke/return points on the harness's sequence.

func mkHistory(ops []Op) *history {
	per := [][]Op{ops}
	return newHistory(per)
}

func write(worker, seq int, key, value uint64, invoke, ret uint64) Op {
	op := Op{Worker: worker, Seq: seq, Kind: OpUpsert, Key: key, Value: value, Invoke: invoke}
	if ret != 0 {
		op.Return = ret
		op.Done = true
	}
	return op
}

func TestOracleAcceptsLatestCompletedWrite(t *testing.T) {
	h := mkHistory([]Op{
		write(0, 0, 1, 0xA, 100, 200),
		write(0, 1, 1, 0xB, 300, 400),
	})
	vs := checkDurablePrefix(nil, h, map[uint64]uint64{1: 0xB}, 0)
	if len(vs) != 0 {
		t.Fatalf("valid state flagged: %v", vs)
	}
}

func TestOracleCatchesLostCompletedWrite(t *testing.T) {
	h := mkHistory([]Op{
		write(0, 0, 1, 0xA, 100, 200),
		write(0, 1, 1, 0xB, 300, 400), // completed, after A returned
	})
	// Recovered A: B — a completed write — was lost.
	vs := checkDurablePrefix(nil, h, map[uint64]uint64{1: 0xA}, 0)
	if len(vs) != 1 || !strings.Contains(vs[0].Reason, "lost update") {
		t.Fatalf("lost completed write not caught: %v", vs)
	}
	// Recovered absent: even worse, also a violation.
	vs = checkDurablePrefix(nil, h, map[uint64]uint64{}, 0)
	if len(vs) != 1 {
		t.Fatalf("lost key not caught: %v", vs)
	}
}

func TestOracleInFlightWriteIsAtomic(t *testing.T) {
	h := mkHistory([]Op{
		write(0, 0, 1, 0xA, 100, 200),
		write(0, 1, 1, 0xB, 300, 0), // in flight at the crash
	})
	// Both "landed" and "did not land" are legal.
	for _, rec := range []map[uint64]uint64{{1: 0xA}, {1: 0xB}} {
		if vs := checkDurablePrefix(nil, h, rec, 0); len(vs) != 0 {
			t.Fatalf("legal in-flight outcome %v flagged: %v", rec, vs)
		}
	}
	// A value from nowhere is not.
	vs := checkDurablePrefix(nil, h, map[uint64]uint64{1: 0xEE}, 0)
	if len(vs) != 1 || !strings.Contains(vs[0].Reason, "fabricated") {
		t.Fatalf("fabricated value not caught: %v", vs)
	}
}

func TestOracleConcurrentWritesEitherOrder(t *testing.T) {
	// Two completed writes whose windows overlap: both linearization
	// orders are legal, so both values are acceptable; the pre-state is
	// not (both writes completed).
	h := mkHistory([]Op{
		write(0, 0, 1, 0xA, 100, 300),
		write(1, 0, 1, 0xB, 200, 250),
	})
	for _, rec := range []map[uint64]uint64{{1: 0xA}, {1: 0xB}} {
		if vs := checkDurablePrefix(nil, h, rec, 0); len(vs) != 0 {
			t.Fatalf("concurrent outcome %v flagged: %v", rec, vs)
		}
	}
	if vs := checkDurablePrefix(nil, h, map[uint64]uint64{}, 0); len(vs) != 1 {
		t.Fatal("losing both concurrent completed writes must be a violation")
	}
}

func TestOracleBaselineCarriesAcrossRounds(t *testing.T) {
	base := map[uint64]uint64{5: 0xBA5E}
	// Untouched key keeps its baseline value.
	h := mkHistory(nil)
	if vs := checkDurablePrefix(base, h, map[uint64]uint64{5: 0xBA5E}, 1); len(vs) != 0 {
		t.Fatalf("baseline state flagged: %v", vs)
	}
	// Losing it with no writes this round is a violation.
	if vs := checkDurablePrefix(base, h, map[uint64]uint64{}, 1); len(vs) != 1 {
		t.Fatal("lost baseline key not caught")
	}
	// A completed delete makes absence legal — and the baseline stale.
	h = mkHistory([]Op{{Worker: 0, Kind: OpDelete, Key: 5, Invoke: 100, Return: 200, Done: true}})
	if vs := checkDurablePrefix(base, h, map[uint64]uint64{}, 1); len(vs) != 0 {
		t.Fatalf("completed delete flagged: %v", vs)
	}
	if vs := checkDurablePrefix(base, h, map[uint64]uint64{5: 0xBA5E}, 1); len(vs) != 1 {
		t.Fatal("baseline surviving a later completed delete not caught")
	}
}

func TestOracleReadValidation(t *testing.T) {
	ever := map[uint64]map[uint64]bool{1: {0xA: true}}
	h := mkHistory([]Op{
		{Worker: 0, Kind: OpLookup, Key: 1, Value: 0xA, Found: true, Invoke: 10, Return: 20, Done: true},
		{Worker: 1, Kind: OpLookup, Key: 1, Value: 0xFF, Found: true, Invoke: 10, Return: 20, Done: true},
	})
	vs := checkReads(h, ever, 0)
	if len(vs) != 1 || vs[0].Got != 0xFF {
		t.Fatalf("fabricated read not caught (or false positive): %v", vs)
	}
}

func TestOracleScanAgreement(t *testing.T) {
	look := map[uint64]uint64{1: 0xA, 2: 0xB}
	scan := map[uint64]uint64{1: 0xA, 3: 0xC}
	vs := checkScanAgreement(look, scan, 0)
	if len(vs) != 2 {
		t.Fatalf("want 2 divergences (missing 2, extra 3), got %v", vs)
	}
}
