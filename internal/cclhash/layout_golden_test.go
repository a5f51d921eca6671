package cclhash

import (
	"testing"

	"cclbtree/internal/pmem"
)

// goldenLine is one raw 256 B PM line.
type goldenLine [32]uint64

// decodeGoldenLine splits a raw bucket by the documented format without
// going through any of the package's accessors: word 0 = 14-bit bitmap |
// 2 reserved bits | 48-bit next-overflow, word 1 = timestamp, words 2-3
// = 14 one-byte fingerprints, words 4-31 = 14 (key, value) slots.
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

// TestBucketLayoutGolden pins the bytes the table's flush path puts on
// media for one bucket: a single-bucket table driven past 14 entries
// (so the home bucket links an overflow bucket), updates and deletes,
// then the home bucket word for word.
func TestBucketLayoutGolden(t *testing.T) {
	h, w := newTable(t, Options{Buckets: 1, DisableGC: true})
	for i := uint64(0); i < 23; i++ {
		k := i*7%23 + 1
		if err := w.Put(k, k*0x101); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []uint64{2, 4, 6} {
		if err := w.Put(k, k*0x10001); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []uint64{8, 15, 22, 13, 20} {
		if err := w.Delete(k); err != nil {
			t.Fatal(err)
		}
	}

	th := h.Pool().NewThread(0)
	var got goldenLine
	th.ReadRange(h.d.nodes[0].Line(), got[:])
	want := goldenLine{
		0xd2003fd1,         // bitmap 0x3fd1 (deletes cleared slots 1, 2, 3, 5) | next<<16: the first line of the first carve
		0x22,               // timestamp of the last flush
		0xef1e3f2f9ac1d580, // fingerprints, slots 0-7
		0xac8c665f974e,     // fingerprints, slots 8-13
		0x1, 0x101, 0x8, 0x808, 0xf, 0xf0f, 0x16, 0x1616,
		0x6, 0x60006, 0xd, 0xd0d, 0x14, 0x1414, 0x4, 0x40004,
		0xb, 0xb0b, 0x12, 0x1212, 0x2, 0x20002, 0x9, 0x909,
		0x10, 0x1010, 0x17, 0x1717,
	}
	if got != want {
		t.Errorf("home bucket image moved:\n got %#x\nwant %#x", got, want)
	}

	bitmap, next, ts, fps, kvs := decodeGoldenLine(got)
	if ts == 0 {
		t.Error("flushed bucket carries no timestamp")
	}
	// Fixed bucket addresses: a delete clears the bit (no fence entry).
	// Key 20's delete is still buffered in DRAM.
	wantKV := map[uint64]uint64{
		1: 0x101, 2: 0x20002, 4: 0x40004, 6: 0x60006, 9: 0x909,
		11: 0xb0b, 16: 0x1010, 18: 0x1212, 20: 0x1414, 23: 0x1717,
	}
	gotKV := map[uint64]uint64{}
	for i, kv := range kvs {
		if bitmap&(1<<uint(i)) == 0 {
			continue
		}
		gotKV[kv[0]] = kv[1]
		if f := fp(kv[0]); fps[i] != f {
			t.Errorf("slot %d: fingerprint %#x, key %d hashes to %#x", i, fps[i], kv[0], f)
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
	if overflow := h.LeafCount() - 1; next == 0 || overflow != 1 {
		t.Fatalf("next %#x, %d overflow buckets: want one linked overflow bucket", next, overflow)
	}
	var over goldenLine
	th.ReadRange(pmem.Unpack48(next), over[:])
	if obm, onext, _, _, _ := decodeGoldenLine(over); obm == 0 || onext != 0 {
		t.Errorf("overflow bucket: bitmap %#x next %#x, want entries and a nil link", obm, onext)
	}
}
