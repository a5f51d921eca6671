package core

import "cclbtree/internal/pmleaf"

// A leaf is one pmleaf line (§4.1, Fig 7b): exactly 256 B = one XPLine,
// so a batch flush touches a single media line. The format lives in
// internal/pmleaf; only the fingerprint function below is the tree's
// own.
const (
	LeafBytes = pmleaf.Bytes
	// LeafSlots is the KV capacity: (256 − 32) / 16.
	LeafSlots = pmleaf.Slots
)

// fpHash derives the 1 B fingerprint from a key hash (FPTree-style,
// used to filter PM reads in point queries).
func fpHash(h uint64) byte {
	return byte(h ^ h>>8 ^ h>>16 ^ h>>32 ^ h>>48)
}

// mix64 is the SplitMix64 finalizer, used to hash fixed keys.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}
