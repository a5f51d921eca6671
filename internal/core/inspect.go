package core

import (
	"fmt"
	"io"

	"cclbtree/internal/pmem"
	"cclbtree/internal/pmleaf"
	"cclbtree/internal/wal"
)

// InspectReport summarizes the persistent state of a CCL-BTree pool —
// what a fsck-style tool can derive from the PM image alone.
type InspectReport struct {
	VarKV          bool
	ChunkBytes     int
	Leaves         int
	LiveEntries    int
	FenceEntries   int
	EmptyLeaves    int
	ChainBrokenAt  int // -1 when ordered correctly
	FillHistogram  [LeafSlots + 1]int
	RegisteredLogs int
	LogEntries     int
	PMLeafBytes    int64
}

// Inspect reads a pool's persistent image (no recovery, no mutation)
// and reports structural statistics plus an inter-leaf order check. It
// reads the image through Open's checks — the validated superblock and
// chunk directory, and the leaf walk's range, alignment and cycle
// checks — so a corrupt image returns an error (typically
// *CorruptError) rather than a panic or an endless walk. Leaves out of
// key order are reported (ChainBrokenAt), not rejected. Only one
// whole-device tree has a leaf list at the superblock's root: another
// index's image or a sharded pool is refused.
func Inspect(pool *pmem.Pool) (*InspectReport, error) {
	t := pool.NewThread(0)
	sb, err := readSuperblock(pool, t, pmem.MakeAddr(0, sbOffset))
	if err != nil {
		return nil, err
	}
	if _, count := sbArena(sb.flags); count > 1 || sb.flags&sbIndex != 0 {
		return nil, fmt.Errorf("core: not one whole-device tree (%d arenas, another index's image: %v)",
			count, sb.flags&sbIndex != 0)
	}
	chunks, _, err := sb.chunks(pool, t)
	if err != nil {
		return nil, err
	}
	rep := &InspectReport{
		VarKV:         sb.flags&1 != 0,
		ChunkBytes:    sb.chunkBytes,
		ChainBrokenAt: -1,
	}
	rep.RegisteredLogs = len(chunks)
	for _, c := range chunks {
		rep.LogEntries += len(wal.ReadEntriesInChunks(t, []pmem.Addr{c}, rep.ChunkBytes))
	}

	cur := sb.root
	seen := map[pmem.Addr]bool{cur: true}
	var prevMax uint64
	havePrev := false
	idx := 0
	for !cur.IsNil() {
		var img pmleaf.Image
		img.Read(t, cur)
		live, fences := 0, 0
		var minK, maxK uint64
		first := true
		for i := 0; i < LeafSlots; i++ {
			if !img.Valid(i) {
				continue
			}
			if img.Val(i) == Tombstone {
				fences++
			} else {
				live++
			}
			k := img.Key(i)
			if rep.VarKV {
				continue // byte keys: order check skipped here
			}
			if first || k < minK {
				minK = k
			}
			if k > maxK {
				maxK = k
			}
			first = false
		}
		rep.Leaves++
		rep.LiveEntries += live
		rep.FenceEntries += fences
		rep.FillHistogram[live+fences]++
		if live+fences == 0 {
			rep.EmptyLeaves++
		}
		if !rep.VarKV && !first {
			if havePrev && minK <= prevMax && rep.ChainBrokenAt < 0 {
				rep.ChainBrokenAt = idx
			}
			prevMax = maxK
			havePrev = true
		}
		cur = img.Next()
		if err := nextLeaf(pool, cur, seen); err != nil {
			return nil, err
		}
		seen[cur] = true
		idx++
	}
	rep.PMLeafBytes = int64(rep.Leaves) * LeafBytes
	return rep, nil
}

// Fprint renders the report.
func (r *InspectReport) Fprint(w io.Writer) {
	fmt.Fprintf(w, "tree mode        : ")
	if r.VarKV {
		fmt.Fprintln(w, "variable-size KV (indirection keys)")
	} else {
		fmt.Fprintln(w, "fixed 8 B KV")
	}
	fmt.Fprintf(w, "leaves           : %d (%d bytes PM, %d empty)\n", r.Leaves, r.PMLeafBytes, r.EmptyLeaves)
	fmt.Fprintf(w, "live entries     : %d\n", r.LiveEntries)
	fmt.Fprintf(w, "fence tombstones : %d\n", r.FenceEntries)
	if r.ChainBrokenAt >= 0 {
		fmt.Fprintf(w, "ORDER VIOLATION  : leaf #%d overlaps its predecessor\n", r.ChainBrokenAt)
	} else {
		fmt.Fprintln(w, "leaf-chain order : OK")
	}
	fmt.Fprintf(w, "WAL chunks       : %d registered (%d bytes each), %d raw entries\n",
		r.RegisteredLogs, r.ChunkBytes, r.LogEntries)
	fmt.Fprintf(w, "leaf fill        :")
	for occ, n := range r.FillHistogram {
		if n > 0 {
			fmt.Fprintf(w, " %d:%d", occ, n)
		}
	}
	fmt.Fprintln(w)
}
