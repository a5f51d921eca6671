package core

import (
	"testing"

	"cclbtree/internal/pmem"
	"cclbtree/internal/pmleaf"
)

// goldenLine is one raw 256 B PM line.
type goldenLine [32]uint64

// decodeGoldenLine splits a raw line by the documented format (§4.1,
// Fig 7b) without going through any of the package's accessors: word 0
// = 14-bit bitmap | 2 reserved bits | 48-bit next, word 1 = timestamp,
// words 2-3 = 14 one-byte fingerprints, words 4-31 = 14 (key, value)
// slots.
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

// TestLeafLayoutGolden pins the bytes the tree's write path puts on
// media for one leaf: a fixed insert/update/delete sequence, then the
// head leaf word for word. A change to the leaf format, the slot
// assignment order, the fingerprint function or the timestamp rule
// shows up here as a diff against the literal.
func TestLeafLayoutGolden(t *testing.T) {
	tr, w := newTestTree(t, Options{GC: GCOff}, nil)
	// 23 distinct keys in a scattered order (forces one split), then an
	// update and a delete that both reach the head leaf.
	for i := uint64(0); i < 23; i++ {
		k := i*7%23 + 1
		if err := w.Upsert(k, k*0x101); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []uint64{2, 4, 6} {
		if err := w.Upsert(k, k*0x10001); err != nil {
			t.Fatal(err)
		}
	}
	for _, k := range []uint64{3, 5, 7} {
		if err := w.Delete(k); err != nil {
			t.Fatal(err)
		}
	}

	th := tr.Pool().NewThread(0)
	var got goldenLine
	th.ReadRange(tr.head.leaf, got[:])
	want := goldenLine{
		0xb2000cff,         // bitmap 0x0cff (slots 0-7, 10, 11) | next<<16: the line after the head's in its carve
		0x1f,               // timestamp of the last flush
		0xe30b72c7a0517a64, // fingerprints, slots 0-7
		0x83f001c6,         // fingerprints, slots 8-13
		0x1, 0x101, 0x8, 0x808, 0x7, 0x0, 0x5, 0x0,
		0x6, 0x60006, 0x3, 0x0, 0xa, 0xa0a, 0x4, 0x40004,
		0xb, 0xb0b, 0x12, 0x1212, // slots 8-9: moved right by the split, bits cleared
		0x2, 0x20002, 0x9, 0x909,
		0x0, 0x0, 0x0, 0x0,
	}
	if got != want {
		t.Errorf("head leaf image moved:\n got %#x\nwant %#x", got, want)
	}

	bitmap, next, ts, fps, kvs := decodeGoldenLine(got)
	if ts == 0 {
		t.Error("flushed leaf carries no timestamp")
	}
	// Deleted keys stay as valid slots holding the tombstone (fences).
	wantKV := map[uint64]uint64{
		1: 0x101, 2: 0x20002, 3: Tombstone, 4: 0x40004, 5: Tombstone,
		6: 0x60006, 7: Tombstone, 8: 0x808, 9: 0x909, 10: 0xa0a,
	}
	gotKV := map[uint64]uint64{}
	for i, kv := range kvs {
		if bitmap&(1<<uint(i)) == 0 {
			continue
		}
		gotKV[kv[0]] = kv[1]
		if f := tr.keyFingerprint(th, kv[0]); fps[i] != f {
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
	second := tr.head.next.Load()
	if second == nil || next == 0 || pmem.Unpack48(next) != second.leaf {
		t.Fatalf("meta word's next %#x does not name the second leaf", next)
	}
}

// TestLeafReadsIdenticallyThroughSharedType walks a tree the write path
// built and checks that pmleaf.Image — the one definition of the line —
// decodes every leaf exactly as the format spec above does, and that
// Inspect, which reads through the same type, reports the same totals.
func TestLeafReadsIdenticallyThroughSharedType(t *testing.T) {
	tr, w := newTestTree(t, Options{GC: GCOff}, nil)
	for i := uint64(0); i < 500; i++ {
		k := i*7%503 + 1
		if err := w.Upsert(k, k*0x101); err != nil {
			t.Fatal(err)
		}
	}
	for k := uint64(1); k <= 500; k += 9 {
		if err := w.Delete(k); err != nil {
			t.Fatal(err)
		}
	}

	th := tr.Pool().NewThread(0)
	leaves, live, fences := 0, 0, 0
	var fill [LeafSlots + 1]int
	for leaf := tr.head.leaf; !leaf.IsNil(); {
		var raw goldenLine
		th.ReadRange(leaf, raw[:])
		var img pmleaf.Image
		img.Read(th, leaf)
		if img.Words != raw {
			t.Fatalf("leaf %v: Image.Read loaded %#x, media holds %#x", leaf, img.Words, raw)
		}
		bitmap, next, ts, fps, kvs := decodeGoldenLine(raw)
		if img.Bitmap() != bitmap || img.TS() != ts || img.Meta() != raw[0] {
			t.Fatalf("leaf %v: header decodes to bitmap %#x ts %d, spec says %#x %d", leaf, img.Bitmap(), img.TS(), bitmap, ts)
		}
		wantNext := pmem.NilAddr
		if next != 0 {
			wantNext = pmem.Unpack48(next)
		}
		if img.Next() != wantNext {
			t.Fatalf("leaf %v: next %v, spec says %v", leaf, img.Next(), wantNext)
		}
		n := 0
		for i := 0; i < LeafSlots; i++ {
			if img.Valid(i) != (bitmap&(1<<uint(i)) != 0) || img.FPAt(i) != fps[i] ||
				img.Key(i) != kvs[i][0] || img.Val(i) != kvs[i][1] {
				t.Fatalf("leaf %v slot %d: Image and spec disagree", leaf, i)
			}
			if !img.Valid(i) {
				continue
			}
			n++
			if img.Val(i) == Tombstone {
				fences++
			} else {
				live++
			}
		}
		if img.Count() != n {
			t.Fatalf("leaf %v: Count %d, %d valid slots", leaf, img.Count(), n)
		}
		fill[n]++
		leaves++
		leaf = img.Next()
	}

	rep, err := Inspect(tr.Pool())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Leaves != leaves || rep.LiveEntries != live || rep.FenceEntries != fences || rep.FillHistogram != fill {
		t.Errorf("Inspect: %d leaves, %d live, %d fences, fill %v; walk through pmleaf.Image: %d, %d, %d, %v",
			rep.Leaves, rep.LiveEntries, rep.FenceEntries, rep.FillHistogram, leaves, live, fences, fill)
	}
	if leaves < 30 || fences == 0 {
		t.Errorf("walk covered %d leaves and %d fences: tree too small to mean anything", leaves, fences)
	}
}
