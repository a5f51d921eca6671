package core

import (
	"fmt"

	"cclbtree/internal/pmem"
)

// Variable-size KV support (§4.4 Optimization #3): keys and values
// larger than 8 B live in out-of-band PM blobs; the tree, the logs, and
// the inner directory hold 8 B indirection pointers whose most
// significant bit marks them as pointers. Comparisons chase the
// pointers and compare actual bytes — the pointer-chasing cost Fig 15b
// and Fig 15c quantify.
//
// Blobs are immutable and written append-only from per-worker arenas;
// updates write a new blob and swing the 8 B pointer, so pointer writes
// stay failure-atomic and still benefit from the buffering design.

const blobTag = uint64(1) << 63

// probeTag marks a transient in-DRAM probe key (lookup/scan arguments):
// the low bits hold the issuing worker's id and the bytes live in that
// worker. Probe words are never stored in the tree or the logs; they
// only flow through comparisons, so read operations write nothing.
const probeTag = uint64(1) << 62

// IsBlobWord reports whether an 8 B word is an indirection pointer.
func IsBlobWord(w uint64) bool { return w&blobTag != 0 }

func isProbeWord(w uint64) bool { return w&blobTag == 0 && w&probeTag != 0 }

func blobAddr(w uint64) pmem.Addr { return pmem.Unpack48(w &^ blobTag) }

// blobArenaChunk is the granularity at which workers reserve PM for
// blob storage.
const blobArenaChunk = 64 << 10

// blobArena is a per-worker append-only blob allocator.
type blobArena struct {
	alloc interface {
		Alloc(socket, size int) (pmem.Addr, error)
	}
	socket int
	cur    pmem.Addr
	off    int
	limit  int
}

// write stores b as a blob ([len][data...]) and returns the tagged
// pointer word. The blob is persisted before the pointer is used.
func (ar *blobArena) write(t *pmem.Thread, b []byte) (uint64, error) {
	need := (1 + (len(b)+7)/8) * pmem.WordSize
	if need > blobArenaChunk {
		return 0, fmt.Errorf("core: blob of %d bytes exceeds arena chunk", len(b))
	}
	if ar.cur.IsNil() || ar.off+need > ar.limit {
		c, err := ar.alloc.Alloc(ar.socket, blobArenaChunk)
		if err != nil {
			return 0, fmt.Errorf("core: blob arena: %w", err)
		}
		ar.cur, ar.off, ar.limit = c, 0, blobArenaChunk
	}
	addr := ar.cur.Add(int64(ar.off))
	ar.off += need

	words := make([]uint64, need/pmem.WordSize)
	words[0] = uint64(len(b))
	for i, c := range b {
		words[1+i/8] |= uint64(c) << (8 * uint(i%8))
	}
	t.WriteRange(addr, words)
	t.Persist(addr, need)
	return blobTag | addr.Pack48(), nil
}

// readBlob loads a blob's bytes.
func readBlob(t *pmem.Thread, w uint64) []byte {
	addr := blobAddr(w)
	n := t.Load(addr)
	out := make([]byte, n)
	nw := (int(n) + 7) / 8
	words := make([]uint64, nw)
	if nw > 0 {
		t.ReadRange(addr.Add(8), words)
	}
	for i := range out {
		out[i] = byte(words[i/8] >> (8 * uint(i%8)))
	}
	return out
}

// compareVar orders two key words that are blob pointers, probe words,
// or the 0 sentinel (which sorts below everything).
func (tr *Tree) compareVar(t *pmem.Thread, a, b uint64) int {
	if a == b {
		return 0
	}
	if a == 0 {
		return -1
	}
	if b == 0 {
		return 1
	}
	ab := tr.keyBytes(t, a)
	bb := tr.keyBytes(t, b)
	for i := 0; i < len(ab) && i < len(bb); i++ {
		if ab[i] != bb[i] {
			if ab[i] < bb[i] {
				return -1
			}
			return 1
		}
	}
	switch {
	case len(ab) < len(bb):
		return -1
	case len(ab) > len(bb):
		return 1
	}
	return 0
}

// keyBytes resolves a key word to its bytes: probe words come from the
// issuing worker's DRAM buffer, blob words from PM.
func (tr *Tree) keyBytes(t *pmem.Thread, w uint64) []byte {
	if isProbeWord(w) {
		return tr.probeBytes(int(w &^ probeTag))
	}
	return readBlob(t, w)
}

// probeBytes fetches a registered worker's current probe key, from the
// registry's snapshot: no lock on a var-KV comparison.
func (tr *Tree) probeBytes(id int) []byte {
	return (*tr.registry.Load())[id].probeKey
}

// hashKeyBytes hashes key bytes (FNV-1a) for fingerprinting and
// recovery-time grouping.
func hashKeyBytes(b []byte) uint64 {
	h := uint64(14695981039346656037)
	for _, c := range b {
		h ^= uint64(c)
		h *= 1099511628211
	}
	return h
}

// decodeValueWord turns a stored value word into bytes: blob words are
// chased, inline words are returned as 8 B little-endian.
func decodeValueWord(t *pmem.Thread, w uint64) []byte {
	if IsBlobWord(w) {
		return readBlob(t, w)
	}
	out := make([]byte, 8)
	for i := range out {
		out[i] = byte(w >> (8 * uint(i)))
	}
	return out
}
