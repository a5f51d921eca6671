package cclbtree

import "cclbtree/internal/core"

// The routing hash must be stable across processes and restarts — the
// shard a key lives on is persistent state, so anything seeded per
// process (hash/maphash) would scatter a reopened DB's keys to the
// wrong shards. mix64 is the SplitMix64 finalizer: cheap, invertible
// (no funneling) and well mixed in the low bits the modulus keeps.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// hashBytes is 64-bit FNV-1a with a final mix, for VarKV routing.
func hashBytes(b []byte) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, c := range b {
		h ^= uint64(c)
		h *= prime64
	}
	return mix64(h)
}

// shardOf is the one route: Apply, every single write and (through
// ShardFor and ShardForVar) every read pick an op's shard with it. An op
// with byte-slice key routes by those bytes, any other by its key word.
func (db *DB) shardOf(op *core.BatchOp) int {
	if len(db.shards) == 1 {
		return 0
	}
	h := mix64(op.Key)
	if op.KeyBytes != nil {
		h = hashBytes(op.KeyBytes)
	}
	return int(h % uint64(len(db.shards)))
}
