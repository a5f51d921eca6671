package fptree

import (
	"testing"

	"cclbtree/internal/index/indextest"
	"cclbtree/internal/pmem"
)

// goldenLine is one raw 256 B PM line.
type goldenLine [32]uint64

// decodeGoldenLine splits a raw leaf by the documented format without
// going through the shared leaf package: word 0 = 14-bit bitmap | 2
// reserved bits | 48-bit next, word 1 unused by FPTree, words 2-3 = 14
// one-byte fingerprints, words 4-31 = 14 (key, value) slots.
func decodeGoldenLine(l goldenLine) (bitmap uint16, next, ts uint64, fps [14]byte, kvs [14][2]uint64) {
	bitmap = uint16(l[0] & 0x3fff)
	next = l[0] >> 16
	ts = l[1]
	for i := range fps {
		fps[i] = byte(l[2+i/8] >> (8 * uint(i%8)))
		kvs[i] = [2]uint64{l[4+2*i], l[5+2*i]}
	}
	return
}

// TestLeafLayoutGolden pins the bytes FPTree's write path puts on media
// for one leaf: a fixed insert/update/delete sequence with one split,
// then the head leaf word for word.
func TestLeafLayoutGolden(t *testing.T) {
	pool := indextest.Pool()
	tr, err := New(pool)
	if err != nil {
		t.Fatal(err)
	}
	h := tr.NewHandle(0)
	for i := uint64(0); i < 23; i++ {
		k := i*7%23 + 1
		if err := h.Upsert(k, k*0x101); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []uint64{2, 4, 6} {
		if err := h.Upsert(k, k*0x10001); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []uint64{3, 5, 7} {
		if err := h.Delete(k); err != nil {
			t.Fatal(err)
		}
	}

	_, head, _ := tr.dir.Min()
	th := pool.NewThread(0)
	var got goldenLine
	th.ReadRange(head, got[:])
	want := goldenLine{
		0x11001fa3,         // bitmap 0x1fa3 | next<<16
		0x0,                // no timestamp
		0xb0214eb01fff11f6, // fingerprints, slots 0-7
		0xa022ef4757a4,     // fingerprints, slots 8-13
		0x1, 0x101, 0x8, 0x808,
		0x7, 0x707, 0x5, 0x505, 0x6, 0x606, // deleted / superseded out of place
		0xc, 0xc0c,
		0x3, 0x303, // deleted
		0x6, 0x60006, 0xb, 0xb0b, 0xa, 0xa0a, 0x4, 0x40004,
		0x9, 0x909, 0x2, 0x20002,
		0x17, 0x1717, // moved right by the split
	}
	if got != want {
		t.Errorf("head leaf image moved:\n got %#x\nwant %#x", got, want)
	}

	bitmap, next, ts, fps, kvs := decodeGoldenLine(got)
	if ts != 0 {
		t.Errorf("FPTree stamps no timestamp, word 1 = %#x", ts)
	}
	wantKV := map[uint64]uint64{
		1: 0x101, 2: 0x20002, 4: 0x40004, 6: 0x60006, 8: 0x808,
		9: 0x909, 10: 0xa0a, 11: 0xb0b, 12: 0xc0c,
	}
	gotKV := map[uint64]uint64{}
	for i, kv := range kvs {
		if bitmap&(1<<uint(i)) == 0 {
			continue
		}
		gotKV[kv[0]] = kv[1]
		// The fingerprint on media must be the one Lookup filters by.
		if v, ok := h.Lookup(kv[0]); !ok || v != kv[1] {
			t.Errorf("slot %d (fp %#x): Lookup(%d) = %#x, %v; slot holds %#x", i, fps[i], kv[0], v, ok, kv[1])
		}
	}
	if len(gotKV) != len(wantKV) {
		t.Errorf("decoded %v, want %v", gotKV, wantKV)
	}
	for k, v := range wantKV {
		if gotKV[k] != v {
			t.Errorf("decoded key %d = %#x, want %#x", k, gotKV[k], v)
		}
	}
	_, second, ok := tr.dirNextLow(0)
	if !ok || next == 0 || pmem.Unpack48(next) != second {
		t.Fatalf("meta word's next %#x does not name the second leaf %v", next, second)
	}
}
