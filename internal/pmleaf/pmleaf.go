// Package pmleaf is the single definition of the 256 B unsorted
// fingerprinted PM line (§4.1, Fig 7b) that CCL-BTree's leaves, the §6
// hash table's buckets and the FPTree-family baselines' leaves (FPTree,
// LB+-Tree, DPTree's base tree) all put on media. One line is exactly
// one XPLine, so a batch flush touches a single media line:
//
//	word 0        meta: 14-bit validity bitmap | 2 reserved bits |
//	              48-bit packed next pointer. Bitmap and next share one
//	              8 B word so a split or merge publishes atomically
//	              (§4.2).
//	word 1        timestamp (failure recovery, §3.3; unused by the
//	              baselines)
//	words 2–3     14 × 1 B fingerprints + 2 B pad
//	words 4–31    14 KV slots (key word, value word), unsorted
//
// The format is shared; the fingerprint function is not. Each structure
// hashes keys its own way (FP below is the baselines') and the bytes it
// puts in words 2–3 are part of its own media format.
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
	// HeaderWords is the metadata region (words 0–3): one 32 B span of
	// the first cacheline, persisted with a single flush.
	HeaderWords = 4
	HeaderBytes = HeaderWords * pmem.WordSize
	// BitmapMask covers the validity bits of the meta word.
	BitmapMask = 1<<Slots - 1

	metaWord = 0
	tsWord   = 1
	fpWord   = 2
	slotBase = HeaderWords
)

// PackMeta builds the header word from a bitmap and next pointer.
func PackMeta(bitmap uint16, next pmem.Addr) uint64 {
	v := uint64(bitmap) & BitmapMask
	if !next.IsNil() {
		v |= next.Pack48() << 16
	}
	return v
}

// UnpackMeta reverses PackMeta.
func UnpackMeta(meta uint64) (uint16, pmem.Addr) {
	bm := uint16(meta & BitmapMask)
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
	t.ReadRange(a, li.Words[:HeaderWords])
}

// Meta returns the raw header word.
func (li *Image) Meta() uint64 { return li.Words[metaWord] }

// SetMeta replaces the header word in the image.
func (li *Image) SetMeta(v uint64) { li.Words[metaWord] = v }

// TS returns the flush timestamp.
func (li *Image) TS() uint64 { return li.Words[tsWord] }

// SetTS replaces the flush timestamp in the image.
func (li *Image) SetTS(v uint64) { li.Words[tsWord] = v }

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
	free := ^uint32(li.Bitmap()) & BitmapMask
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

// SlotWord returns the word index of slot i's key (its value is the
// next word).
func SlotWord(i int) int { return slotBase + 2*i }

// SlotAddr returns the PM address of slot i's key word.
func SlotAddr(leaf pmem.Addr, i int) pmem.Addr {
	return leaf.Add(int64(8 * SlotWord(i)))
}

// MetaAddr returns the PM address of the header word.
func MetaAddr(leaf pmem.Addr) pmem.Addr { return leaf }

// TSAddr returns the PM address of the timestamp word.
func TSAddr(leaf pmem.Addr) pmem.Addr { return leaf.Add(8 * tsWord) }

// WriteWhole writes and persists a complete leaf image.
func WriteWhole(t *pmem.Thread, li *Image) {
	t.WriteRange(li.Addr, li.Words[:])
	t.Persist(li.Addr, Bytes)
}

// WriteHeader stores and persists the 32 B metadata region: the step
// that publishes a batch (fingerprints, timestamp and bitmap+next share
// one cacheline, so one flush covers them).
func WriteHeader(t *pmem.Thread, li *Image) {
	for wd := 0; wd < HeaderWords; wd++ {
		t.Store(li.Addr.Add(int64(8*wd)), li.Words[wd])
	}
	t.Persist(li.Addr, HeaderBytes)
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
