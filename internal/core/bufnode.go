package core

import (
	"sync/atomic"

	"cclbtree/internal/pmem"
)

// bufferNode is the DRAM buffer in front of one PM leaf (§3.2, Fig 7a).
// Its packed header holds the position counter (KVs buffered but not
// yet flushed) and the per-slot epoch bitmap used by locality-aware GC;
// the version word is the node's seqlock, shared with the leaf (§4.4
// Optimization #2). Slots keep their contents after a flush and serve
// as a read cache until overwritten.
//
// All fields that change after publication are atomics so optimistic
// readers are race-free; the version lock makes multi-word reads
// consistent.
type bufferNode struct {
	// version is the seqlock: odd = write-locked. Readers snapshot it,
	// read optimistically, and re-check.
	version atomic.Uint64
	// hdr packs pos (bits 0–7), the epoch bitmap (bits 8–23), and the
	// dead flag (bit 24) — the paper's compressed 8 B header.
	hdr atomic.Uint64
	// leaf is the PM leaf this node fronts. Immutable.
	leaf pmem.Addr
	// lowKey is the routing key word: every key in this node's range
	// satisfies lowKey ≤ key < next.lowKey. Immutable; 0 for the head.
	lowKey uint64
	// slots interleaves key/value words: slot i at 2i, 2i+1.
	slots []atomic.Uint64
	// fps packs one fingerprint byte per slot (maxNbatch = 8 → one
	// word), mirroring the leaf's fingerprint array so lookups touch
	// one DRAM word instead of Nbatch key words. Written only under the
	// version lock, like the slots; a torn fp/key pairing seen by an
	// optimistic reader is caught by validateRead.
	fps atomic.Uint64
	// floor is the last tick drawn for this node (Worker.Stamp): its
	// records, line stamps and GC copies are ordered by its lock, not by
	// the socket that drew them. Read and written only under the
	// version lock.
	floor uint64
	// next and prev maintain the DRAM chain mirroring leaf order;
	// mutated only under the version locks involved.
	next atomic.Pointer[bufferNode]
	prev atomic.Pointer[bufferNode]
}

const (
	hdrPosShift   = 0
	hdrPosMask    = 0xff
	hdrEpochShift = 8
	hdrEpochMask  = 0xffff
	hdrDeadBit    = 1 << 24
)

func packHdr(pos int, epochBits uint16, dead bool) uint64 {
	v := uint64(pos)&hdrPosMask | uint64(epochBits)<<hdrEpochShift
	if dead {
		v |= hdrDeadBit
	}
	return v
}

func unpackHdr(v uint64) (pos int, epochBits uint16, dead bool) {
	return int(v & hdrPosMask), uint16(v >> hdrEpochShift & hdrEpochMask), v&hdrDeadBit != 0
}

// nodeSlabSize is the number of buffer nodes one slab chunk holds.
const nodeSlabSize = 64

// nodeSlab is a single-owner bump allocator of buffer nodes (each
// Worker has one; New and recovery use a local one): node structs and
// their slot words are carved from 64-node chunks, two allocations per
// chunk instead of two per node. Dead nodes are not recycled — the GC
// chain walker, tryMerge and lockOwner hold *bufferNode unpinned across
// lock spins, so reuse would need writers in the epoch protocol. The Go
// collector frees a chunk when its last node dies: a live node pins at
// most its chunk, 64 × (88 + 16·Nbatch) B ≈ 7.5 KB at Nbatch = 2.
type nodeSlab struct {
	nodes []bufferNode
	words []atomic.Uint64
}

func (s *nodeSlab) newNode(leaf pmem.Addr, lowKey uint64, nbatch int) *bufferNode {
	if len(s.nodes) == 0 {
		s.nodes = make([]bufferNode, nodeSlabSize)
		s.words = make([]atomic.Uint64, nodeSlabSize*2*nbatch)
	}
	n := &s.nodes[0]
	s.nodes = s.nodes[1:]
	n.leaf, n.lowKey = leaf, lowKey
	n.slots, s.words = s.words[:2*nbatch:2*nbatch], s.words[2*nbatch:]
	return n
}

func (n *bufferNode) nbatch() int { return len(n.slots) / 2 }

func (n *bufferNode) slotKey(i int) uint64 { return n.slots[2*i].Load() }
func (n *bufferNode) slotVal(i int) uint64 { return n.slots[2*i+1].Load() }

// slotFP returns slot i's fingerprint byte.
func (n *bufferNode) slotFP(i int) byte {
	return byte(n.fps.Load() >> (8 * uint(i)))
}

// setSlot publishes slot i. fp must be the key's fingerprint
// (Tree.keyFingerprint) — a mismatch would make lookups skip the slot
// and resurrect the leaf's stale copy; purges (k = 0) pass 0. Callers
// hold the node's version lock.
func (n *bufferNode) setSlot(i int, k, v uint64, fp byte) {
	n.slots[2*i].Store(k)
	n.slots[2*i+1].Store(v)
	sh := 8 * uint(i)
	n.fps.Store(n.fps.Load()&^(uint64(0xff)<<sh) | uint64(fp)<<sh)
}

// tryLock attempts to take the version lock. On success it returns the
// pre-lock version to pass to unlock.
func (n *bufferNode) tryLock() (uint64, bool) {
	v := n.version.Load()
	if v&1 != 0 {
		return 0, false
	}
	if n.version.CompareAndSwap(v, v+1) {
		return v, true
	}
	return 0, false
}

func (n *bufferNode) unlock(v uint64) {
	n.version.Store(v + 2)
}

// beginRead snapshots the version for an optimistic read; ok is false
// while a writer holds the lock.
func (n *bufferNode) beginRead() (uint64, bool) {
	v := n.version.Load()
	return v, v&1 == 0
}

// validateRead reports whether the optimistic read that started at v
// saw a consistent snapshot.
func (n *bufferNode) validateRead(v uint64) bool {
	return n.version.Load() == v
}

func (n *bufferNode) dead() bool {
	_, _, d := unpackHdr(n.hdr.Load())
	return d
}
