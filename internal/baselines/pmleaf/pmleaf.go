// Package pmleaf provides the 256 B unsorted fingerprinted PM leaf
// layout shared by the FPTree-family baselines (FPTree, LB+-Tree,
// DPTree's base tree, PACTree's leaf variant): a 32 B header holding a
// validity bitmap, a packed next pointer, and 14 fingerprints, followed
// by 14 unsorted KV slots. One leaf is exactly one XPLine.
package pmleaf

import (
	"math/bits"
	"sort"

	"cclbtree/internal/index"
	"cclbtree/internal/pmem"
)

const (
	// Bytes is the leaf size (one XPLine).
	Bytes = 256
	// Slots is the KV capacity.
	Slots = 14
	// Words is the leaf size in 8 B words.
	Words = Bytes / pmem.WordSize

	metaWord = 0
	fpWord   = 2
	slotBase = 4

	bitmapMask = 1<<Slots - 1
)

// PackMeta builds the header word from a bitmap and next pointer.
func PackMeta(bitmap uint16, next pmem.Addr) uint64 {
	v := uint64(bitmap) & bitmapMask
	if !next.IsNil() {
		v |= next.Pack48() << 16
	}
	return v
}

// UnpackMeta reverses PackMeta.
func UnpackMeta(meta uint64) (uint16, pmem.Addr) {
	bm := uint16(meta & bitmapMask)
	raw := meta >> 16
	if raw == 0 {
		return bm, pmem.NilAddr
	}
	return bm, pmem.Unpack48(raw)
}

// FP returns the 1 B fingerprint for a key.
func FP(key uint64) byte {
	x := key
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return byte(x ^ x>>8 ^ x>>16 ^ x>>32)
}

// Image is a DRAM copy of one leaf.
type Image struct {
	Addr  pmem.Addr
	Words [Words]uint64
}

// Read loads the whole leaf (one XPLine access when cold).
func (li *Image) Read(t *pmem.Thread, a pmem.Addr) {
	li.Addr = a
	t.ReadRange(a, li.Words[:])
}

// ReadHeader loads only the 32 B header cacheline.
func (li *Image) ReadHeader(t *pmem.Thread, a pmem.Addr) {
	li.Addr = a
	t.ReadRange(a, li.Words[:slotBase])
}

// Meta returns the raw header word.
func (li *Image) Meta() uint64 { return li.Words[metaWord] }

// SetMeta replaces the header word in the image.
func (li *Image) SetMeta(v uint64) { li.Words[metaWord] = v }

// Bitmap returns the validity bitmap.
func (li *Image) Bitmap() uint16 { bm, _ := UnpackMeta(li.Meta()); return bm }

// Next returns the next-leaf pointer.
func (li *Image) Next() pmem.Addr { _, n := UnpackMeta(li.Meta()); return n }

// Key and Val access slot i.
func (li *Image) Key(i int) uint64 { return li.Words[slotBase+2*i] }
func (li *Image) Val(i int) uint64 { return li.Words[slotBase+2*i+1] }

// SetKV fills slot i in the image.
func (li *Image) SetKV(i int, k, v uint64) {
	li.Words[slotBase+2*i] = k
	li.Words[slotBase+2*i+1] = v
}

// FPAt returns slot i's fingerprint byte.
func (li *Image) FPAt(i int) byte {
	return byte(li.Words[fpWord+i/8] >> (8 * uint(i%8)))
}

// SetFP sets slot i's fingerprint in the image.
func (li *Image) SetFP(i int, f byte) {
	w := &li.Words[fpWord+i/8]
	shift := 8 * uint(i%8)
	*w = *w&^(0xff<<shift) | uint64(f)<<shift
}

// Valid reports whether slot i is set.
func (li *Image) Valid(i int) bool { return li.Bitmap()&(1<<uint(i)) != 0 }

// Count returns the number of valid slots.
func (li *Image) Count() int { return bits.OnesCount16(li.Bitmap()) }

// FreeSlot returns the lowest free slot index, or -1.
func (li *Image) FreeSlot() int {
	free := ^uint32(li.Bitmap()) & bitmapMask
	if free == 0 {
		return -1
	}
	return bits.TrailingZeros32(free)
}

// FindKey locates key among valid slots using the fingerprint filter,
// returning the slot or -1.
func (li *Image) FindKey(key uint64) int {
	bm := li.Bitmap()
	f := FP(key)
	for i := 0; i < Slots; i++ {
		if bm&(1<<uint(i)) != 0 && li.FPAt(i) == f && li.Key(i) == key {
			return i
		}
	}
	return -1
}

// SlotAddr returns the PM address of slot i's key word.
func SlotAddr(leaf pmem.Addr, i int) pmem.Addr {
	return leaf.Add(int64(8 * (slotBase + 2*i)))
}

// MetaAddr returns the PM address of the header word.
func MetaAddr(leaf pmem.Addr) pmem.Addr { return leaf }

// WriteWhole writes and persists a complete leaf image.
func WriteWhole(t *pmem.Thread, li *Image) {
	t.WriteRange(li.Addr, li.Words[:])
	t.Persist(li.Addr, Bytes)
}

// SortedLive returns the leaf's valid entries sorted by key, paired
// with their slot indices.
func (li *Image) SortedLive() (kvs []index.KV, slots []int) {
	for i := 0; i < Slots; i++ {
		if li.Valid(i) {
			kvs = append(kvs, index.KV{Key: li.Key(i), Value: li.Val(i)})
			slots = append(slots, i)
		}
	}
	order := make([]int, len(kvs))
	for i := range order {
		order[i] = i
	}
	sort.Slice(order, func(a, b int) bool { return kvs[order[a]].Key < kvs[order[b]].Key })
	sk := make([]index.KV, len(kvs))
	ss := make([]int, len(kvs))
	for i, o := range order {
		sk[i] = kvs[o]
		ss[i] = slots[o]
	}
	return sk, ss
}
