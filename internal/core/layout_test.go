package core

import (
	"math/rand"
	"testing"
	"testing/quick"

	"cclbtree/internal/pmem"
	"cclbtree/internal/pmleaf"
)

// The leaf-format tests below predate the shared pmleaf type and keep
// checking it from the tree's side: the properties are the ones split,
// merge and recovery rely on.

func TestLeafMetaPacking(t *testing.T) {
	next := pmem.MakeAddr(1, 0xabc00)
	for _, bm := range []uint16{0, 1, 0x3fff, 0x2a2a} {
		m := pmleaf.PackMeta(bm, next)
		gb, gn := pmleaf.UnpackMeta(m)
		if gb != bm || gn != next {
			t.Fatalf("roundtrip bm=%x: got %x,%v", bm, gb, gn)
		}
	}
	// Nil next must unpack to nil.
	if _, n := pmleaf.UnpackMeta(pmleaf.PackMeta(7, pmem.NilAddr)); !n.IsNil() {
		t.Fatal("nil next lost")
	}
	// Bitmap bits beyond 14 must not leak into the pointer field.
	m := pmleaf.PackMeta(0xffff, pmem.NilAddr)
	if bm, n := pmleaf.UnpackMeta(m); bm != pmleaf.BitmapMask || !n.IsNil() {
		t.Fatalf("overflow bits leaked: %x %v", bm, n)
	}
}

func TestLeafMetaPackingQuick(t *testing.T) {
	f := func(bm uint16, off uint32) bool {
		next := pmem.MakeAddr(int(off%4), uint64(off)&^(0xff)|0x100)
		gb, gn := pmleaf.UnpackMeta(pmleaf.PackMeta(bm, next))
		return gb == bm&pmleaf.BitmapMask && gn == next
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLeafImageAccessors(t *testing.T) {
	var img pmleaf.Image
	img.SetKV(5, 123, 456)
	img.SetFP(5, 0x7e)
	img.SetTS(999)
	img.SetMeta(pmleaf.PackMeta(1<<5, pmem.NilAddr))
	if img.Key(5) != 123 || img.Val(5) != 456 {
		t.Fatal("kv accessors")
	}
	if img.FPAt(5) != 0x7e {
		t.Fatal("fp accessor")
	}
	if img.TS() != 999 {
		t.Fatal("ts accessor")
	}
	if !img.Valid(5) || img.Valid(4) {
		t.Fatal("validity")
	}
	if img.Count() != 1 {
		t.Fatal("Count")
	}
	if img.FreeSlot() != 0 {
		t.Fatal("FreeSlot")
	}
	// Setting one fingerprint must not disturb neighbours.
	img.SetFP(4, 0x11)
	img.SetFP(6, 0x22)
	if img.FPAt(5) != 0x7e || img.FPAt(4) != 0x11 || img.FPAt(6) != 0x22 {
		t.Fatal("fp neighbours disturbed")
	}
}

func TestLeafImageFPAllSlots(t *testing.T) {
	var img pmleaf.Image
	want := make([]byte, LeafSlots)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < LeafSlots; i++ {
		want[i] = byte(rng.Intn(256))
		img.SetFP(i, want[i])
	}
	for i := 0; i < LeafSlots; i++ {
		if img.FPAt(i) != want[i] {
			t.Fatalf("fp[%d] = %x want %x", i, img.FPAt(i), want[i])
		}
	}
}

func TestHdrPacking(t *testing.T) {
	for pos := 0; pos <= maxNbatch; pos++ {
		for _, eb := range []uint16{0, 0xffff, 0xa5a5} {
			for _, dead := range []bool{false, true} {
				gp, ge, gd := unpackHdr(packHdr(pos, eb, dead))
				if gp != pos || ge != eb || gd != dead {
					t.Fatalf("hdr roundtrip pos=%d eb=%x dead=%v: %d %x %v", pos, eb, dead, gp, ge, gd)
				}
			}
		}
	}
}

func TestBufferNodeLock(t *testing.T) {
	n := testSlab.newNode(pmem.MakeAddr(0, 4096), 10, 2)
	v, ok := n.tryLock()
	if !ok {
		t.Fatal("fresh lock failed")
	}
	if _, ok := n.tryLock(); ok {
		t.Fatal("double lock succeeded")
	}
	if _, ok := n.beginRead(); ok {
		t.Fatal("read began under write lock")
	}
	n.unlock(v)
	rv, ok := n.beginRead()
	if !ok {
		t.Fatal("read after unlock failed")
	}
	if !n.validateRead(rv) {
		t.Fatal("unchanged version failed validation")
	}
	v2, _ := n.tryLock()
	n.unlock(v2)
	if n.validateRead(rv) {
		t.Fatal("stale version passed validation")
	}
}

func TestBufferNodeSlots(t *testing.T) {
	n := testSlab.newNode(pmem.MakeAddr(0, 4096), 10, 4)
	if n.nbatch() != 4 {
		t.Fatal("nbatch")
	}
	n.setSlot(2, 77, 88, 0xab)
	if n.slotKey(2) != 77 || n.slotVal(2) != 88 {
		t.Fatal("slot accessors")
	}
	if n.slotFP(2) != 0xab {
		t.Fatal("slot fingerprint")
	}
	n.setSlot(3, 5, 6, 0xcd)
	if n.slotFP(2) != 0xab || n.slotFP(3) != 0xcd {
		t.Fatal("fingerprint packing clobbered a neighbor")
	}
}

func TestFingerprintStability(t *testing.T) {
	// Fingerprints must be deterministic: the leaf stores them once
	// and lookups recompute.
	for k := uint64(1); k < 2000; k++ {
		if fpHash(mix64(k)) != fpHash(mix64(k)) {
			t.Fatal("unstable fingerprint")
		}
	}
	// And reasonably distributed.
	seen := map[byte]bool{}
	for k := uint64(1); k < 4096; k++ {
		seen[fpHash(mix64(k))] = true
	}
	if len(seen) < 200 {
		t.Fatalf("only %d distinct fingerprints", len(seen))
	}
}

func TestOptionsDefaults(t *testing.T) {
	o, err := Options{}.withDefaults()
	if err != nil {
		t.Fatal(err)
	}
	if o.Nbatch != 2 || o.THlog != 0.20 || o.ChunkBytes != 4<<20 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	if o.GC != GCLocalityAware {
		t.Fatal("default GC policy")
	}
	// Explicit Base request.
	o, _ = Options{Nbatch: -1}.withDefaults()
	if o.Nbatch != 0 {
		t.Fatalf("Nbatch -1 should mean 0, got %d", o.Nbatch)
	}
	// Bound check.
	if _, err := (Options{Nbatch: maxNbatch + 1}).withDefaults(); err == nil {
		t.Fatal("oversized Nbatch accepted")
	}
}

func TestGCPolicyString(t *testing.T) {
	for _, p := range []GCPolicy{GCLocalityAware, GCNaive, GCOff} {
		if p.String() == "unknown" {
			t.Fatalf("policy %d unnamed", p)
		}
	}
}
