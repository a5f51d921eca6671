package cclbtree

import (
	"errors"
	"testing"
)

// TestPublicBatchApply covers the Batch/Apply surface end to end:
// mixed puts and deletes in one group commit, staging-order semantics
// for same-key ops, reuse after Reset, and durability across a crash.
func TestPublicBatchApply(t *testing.T) {
	db, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session(0)

	var b Batch
	for i := uint64(1); i <= 500; i++ {
		b.Put(i, i*2)
	}
	b.Delete(250)
	b.Put(250, 9999) // same-key ops take effect in staging order
	if b.Len() != 502 {
		t.Fatalf("Len = %d, want 502", b.Len())
	}
	if err := s.Apply(&b); err != nil {
		t.Fatal(err)
	}
	b.Reset()
	if b.Len() != 0 {
		t.Fatalf("Len after Reset = %d", b.Len())
	}
	b.Delete(100).Delete(200)
	if err := s.Apply(&b); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(nil); err != nil {
		t.Fatalf("Apply(nil) = %v", err)
	}

	check := func(s *Session, label string) {
		for i := uint64(1); i <= 500; i++ {
			v, ok := s.Get(i)
			switch i {
			case 100, 200:
				if ok {
					t.Fatalf("%s: deleted key %d present", label, i)
				}
			case 250:
				if !ok || v != 9999 {
					t.Fatalf("%s: key 250 = %d,%v, want 9999", label, v, ok)
				}
			default:
				if !ok || v != i*2 {
					t.Fatalf("%s: key %d = %d,%v", label, i, v, ok)
				}
			}
		}
	}
	check(s, "pre-crash")
	if db.Metrics().Counters.BatchApplies != 2 {
		t.Fatalf("BatchApplies = %d, want 2", db.Metrics().Counters.BatchApplies)
	}

	db.Close()
	db.Pool().Crash()
	db2, err := Open(db.Pool(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	check(db2.Session(0), "post-crash")
}

// TestPublicBatchErrors pins the sentinel errors at the public
// boundary: every rejection is checkable with errors.Is and leaves the
// tree untouched.
func TestPublicBatchErrors(t *testing.T) {
	db, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session(0)

	var zero Batch
	zero.Put(5, 50).Put(0, 1)
	if err := s.Apply(&zero); !errors.Is(err, ErrZeroKey) {
		t.Fatalf("zero key: %v", err)
	}
	if _, ok := s.Get(5); ok {
		t.Fatal("rejected batch had a side effect")
	}

	var varOp Batch
	varOp.PutVar([]byte("k"), []byte("v"))
	if err := s.Apply(&varOp); !errors.Is(err, ErrVarKVRequired) {
		t.Fatalf("var op on fixed tree: %v", err)
	}

	db.Close()
	var late Batch
	late.Put(1, 1)
	if err := s.Apply(&late); !errors.Is(err, ErrClosed) {
		t.Fatalf("apply after close: %v", err)
	}

	cfg := smallConfig()
	cfg.VarKV = true
	dbv, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer dbv.Close()
	var fixedOp Batch
	fixedOp.Put(1, 1)
	if err := dbv.Session(0).Apply(&fixedOp); !errors.Is(err, ErrFixedKVRequired) {
		t.Fatalf("fixed op on var tree: %v", err)
	}
}

// TestPublicRangePaging drives the Range iterator across several
// rangeChunk pages and checks early break.
func TestPublicRangePaging(t *testing.T) {
	db, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session(0)
	const n = 3 * rangeChunk // force multiple Scan pages
	for i := uint64(1); i <= n; i++ {
		if err := s.Put(i*3, i); err != nil {
			t.Fatal(err)
		}
	}

	want := uint64(1)
	for k, v := range s.Range(0) {
		if k != want*3 || v != want {
			t.Fatalf("got %d=%d, want %d=%d", k, v, want*3, want)
		}
		want++
	}
	if want != n+1 {
		t.Fatalf("iterated %d entries, want %d", want-1, n)
	}

	seen := 0
	for range s.Range(1) {
		seen++
		if seen == rangeChunk+5 { // break mid-second-page
			break
		}
	}
	if seen != rangeChunk+5 {
		t.Fatalf("early break saw %d", seen)
	}

	for k := range s.Range(uint64(n)*3 + 1) {
		t.Fatalf("empty range yielded %d", k)
	}
}

// TestPublicRangeVarPaging does the same for byte-ordered iteration.
func TestPublicRangeVarPaging(t *testing.T) {
	cfg := smallConfig()
	cfg.VarKV = true
	db, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session(0)
	const n = 2*rangeChunk + 17
	for i := 0; i < n; i++ {
		k := []byte{'k', byte(i >> 8), byte(i)}
		if err := s.PutVar(k, k); err != nil {
			t.Fatal(err)
		}
	}
	i := 0
	var prev []byte
	for k, v := range s.RangeVar(nil) {
		if string(k) != string(v) {
			t.Fatalf("value mismatch at %q", k)
		}
		if prev != nil && string(k) <= string(prev) {
			t.Fatalf("disorder: %q after %q", k, prev)
		}
		prev = append(prev[:0], k...)
		i++
	}
	if i != n {
		t.Fatalf("iterated %d entries, want %d", i, n)
	}
}
