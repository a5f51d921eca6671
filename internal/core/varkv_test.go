package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cclbtree/internal/pmem"
)

func newVarTree(t *testing.T) (*Tree, *Worker) {
	t.Helper()
	return newTestTree(t, Options{VarKV: true, ChunkBytes: 16 << 10}, func(c *pmem.Config) {
		c.DeviceBytes = 64 << 20
	})
}

func varKey(i int) []byte { return []byte(fmt.Sprintf("key-%06d", i)) }
func varVal(i int) []byte { return []byte(fmt.Sprintf("value-%d-%s", i, "payload")) }

// putVar, deleteVar and putLarge are the byte-carrying single writes,
// each one op through Write as the DB frontend issues it.
func putVar(w *Worker, k, v []byte) error {
	return w.Write(&BatchOp{KeyBytes: k, ValueBytes: v}, false)
}

func deleteVar(w *Worker, k []byte) error { return w.Write(&BatchOp{KeyBytes: k, Delete: true}, false) }

func putLarge(w *Worker, k uint64, v []byte) error {
	return w.Write(&BatchOp{Key: k, ValueBytes: v}, false)
}

func TestVarRoundtrip(t *testing.T) {
	_, w := newVarTree(t)
	for i := 0; i < 1000; i++ {
		if err := putVar(w, varKey(i), varVal(i)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 1000; i++ {
		v, ok := w.LookupVar(varKey(i))
		if !ok || !bytes.Equal(v, varVal(i)) {
			t.Fatalf("LookupVar(%d) = %q,%v", i, v, ok)
		}
	}
	if _, ok := w.LookupVar([]byte("missing")); ok {
		t.Fatal("found absent var key")
	}
}

func TestVarUpdateDelete(t *testing.T) {
	_, w := newVarTree(t)
	for i := 0; i < 300; i++ {
		_ = putVar(w, varKey(i), varVal(i))
	}
	for i := 0; i < 300; i += 2 {
		_ = putVar(w, varKey(i), []byte("updated"))
	}
	for i := 1; i < 300; i += 4 {
		_ = deleteVar(w, varKey(i))
	}
	for i := 0; i < 300; i++ {
		v, ok := w.LookupVar(varKey(i))
		switch {
		case i%2 == 0:
			if !ok || string(v) != "updated" {
				t.Fatalf("key %d = %q,%v", i, v, ok)
			}
		case i%4 == 1:
			if ok {
				t.Fatalf("deleted key %d found", i)
			}
		default:
			if !ok || !bytes.Equal(v, varVal(i)) {
				t.Fatalf("key %d = %q,%v", i, v, ok)
			}
		}
	}
}

func TestVarScanLexicographic(t *testing.T) {
	_, w := newVarTree(t)
	keys := []string{"apple", "banana", "cherry", "date", "elderberry", "fig", "grape"}
	perm := rand.New(rand.NewSource(5)).Perm(len(keys))
	for _, i := range perm {
		_ = putVar(w, []byte(keys[i]), []byte("v-"+keys[i]))
	}
	got := w.ScanVar([]byte("banana"), 4)
	want := []string{"banana", "cherry", "date", "elderberry"}
	if len(got) != len(want) {
		t.Fatalf("scan returned %d: %v", len(got), got)
	}
	for i := range want {
		if string(got[i].Key) != want[i] || string(got[i].Value) != "v-"+want[i] {
			t.Fatalf("scan[%d] = %q/%q", i, got[i].Key, got[i].Value)
		}
	}
}

func TestVarRandomSizesAgainstModel(t *testing.T) {
	_, w := newVarTree(t)
	rng := rand.New(rand.NewSource(21))
	ref := map[string]string{}
	randBytes := func(lo, hi int) []byte {
		n := lo + rng.Intn(hi-lo+1)
		b := make([]byte, n)
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return b
	}
	for op := 0; op < 4000; op++ {
		switch rng.Intn(10) {
		case 0:
			// Delete a random existing key.
			for k := range ref {
				_ = deleteVar(w, []byte(k))
				delete(ref, k)
				break
			}
		default:
			k := randBytes(8, 128)
			v := randBytes(8, 128)
			_ = putVar(w, k, v)
			ref[string(k)] = string(v)
		}
	}
	for k, v := range ref {
		got, ok := w.LookupVar([]byte(k))
		if !ok || string(got) != v {
			t.Fatalf("key %q = %q,%v want %q", k, got, ok, v)
		}
	}
	// Full ordered scan must equal the sorted model.
	keys := make([]string, 0, len(ref))
	for k := range ref {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	got := w.ScanVar([]byte{0}, len(ref)+10)
	if len(got) != len(keys) {
		t.Fatalf("scan %d, model %d", len(got), len(keys))
	}
	for i, k := range keys {
		if string(got[i].Key) != k {
			t.Fatalf("scan[%d] = %q want %q", i, got[i].Key, k)
		}
	}
}

func TestVarRecovery(t *testing.T) {
	tr, w := newVarTree(t)
	for i := 0; i < 800; i++ {
		_ = putVar(w, varKey(i), varVal(i))
	}
	for i := 0; i < 800; i += 5 {
		_ = deleteVar(w, varKey(i))
	}
	tr.Freeze()
	tr.Pool().Crash()
	tr2, _, err := Open(tr.Pool(), Options{}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if !tr2.Options().VarKV {
		t.Fatal("VarKV flag not recovered from superblock")
	}
	w2 := tr2.NewWorker(0)
	for i := 0; i < 800; i++ {
		v, ok := w2.LookupVar(varKey(i))
		if i%5 == 0 {
			if ok {
				t.Fatalf("deleted var key %d resurrected", i)
			}
			continue
		}
		if !ok || !bytes.Equal(v, varVal(i)) {
			t.Fatalf("var key %d after crash = %q,%v", i, v, ok)
		}
	}
}

func TestVarRejectsFixedAPIMix(t *testing.T) {
	_, w := newVarTree(t)
	if err := putVar(w, nil, []byte("v")); err == nil {
		t.Fatal("empty var key accepted")
	}
	_, wFixed := newTestTree(t, Options{}, nil)
	if err := putVar(wFixed, []byte("k"), []byte("v")); err == nil {
		t.Fatal("a VarKV put accepted on fixed-mode tree")
	}
}

func TestLargeValueIndirection(t *testing.T) {
	tr, w := newTestTree(t, Options{}, func(c *pmem.Config) { c.DeviceBytes = 64 << 20 })
	val := bytes.Repeat([]byte{0xab}, 512)
	for i := uint64(1); i <= 500; i++ {
		v := append(append([]byte(nil), val...), byte(i))
		if err := putLarge(w, i, v); err != nil {
			t.Fatal(err)
		}
	}
	for i := uint64(1); i <= 500; i++ {
		v, ok := w.LookupLargeValue(i)
		if !ok || len(v) != 513 || v[512] != byte(i) {
			t.Fatalf("large value %d wrong: len=%d ok=%v", i, len(v), ok)
		}
	}
	// Mixed: plain 8 B values decode as little-endian bytes.
	_ = w.Upsert(9999, 0x0102030405060708)
	v, ok := w.LookupLargeValue(9999)
	if !ok || v[0] != 0x08 || v[7] != 0x01 {
		t.Fatalf("inline decode wrong: %v %v", v, ok)
	}
	// Crash safety of indirection values.
	tr.Freeze()
	tr.Pool().Crash()
	tr2, _, err := Open(tr.Pool(), Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	w2 := tr2.NewWorker(0)
	for i := uint64(1); i <= 500; i++ {
		v, ok := w2.LookupLargeValue(i)
		if !ok || len(v) != 513 || v[512] != byte(i) {
			t.Fatalf("large value %d lost after crash", i)
		}
	}
}

func TestEADRMode(t *testing.T) {
	// eADR: no flushes needed; stores survive crash; tree still works.
	pool := pmem.NewPool(pmem.Config{
		Sockets: 2, DIMMsPerSocket: 2, DeviceBytes: 32 << 20, Mode: pmem.EADR, StrictPersist: true,
	})
	tr, err := New(pool, Options{ChunkBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	w := tr.NewWorker(0)
	for i := uint64(1); i <= 3000; i++ {
		_ = w.Upsert(i, i*2)
	}
	for i := uint64(1); i <= 3000; i++ {
		v, ok := w.Lookup(i)
		if !ok || v != i*2 {
			t.Fatalf("eADR Lookup(%d) = %d,%v", i, v, ok)
		}
	}
	tr.Freeze()
	pool.Crash() // everything survives under eADR
	tr2, _, err := Open(pool, Options{}, 1)
	if err != nil {
		t.Fatal(err)
	}
	w2 := tr2.NewWorker(0)
	for i := uint64(1); i <= 3000; i++ {
		v, ok := w2.Lookup(i)
		if !ok || v != i*2 {
			t.Fatalf("eADR post-crash Lookup(%d) = %d,%v", i, v, ok)
		}
	}
}
