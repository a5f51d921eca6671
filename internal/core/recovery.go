package core

import (
	"fmt"
	"slices"

	"cclbtree/internal/obs"
	"cclbtree/internal/pmem"
	"cclbtree/internal/wal"
)

// RecoveryStats describes one recovery run (Fig 17).
type RecoveryStats struct {
	Leaves          int64
	ChunksScanned   int
	EntriesSeen     int
	EntriesReplayed int
	EntriesStale    int
	// EntriesDropped counts scanned records rejected as garbage (invalid
	// key/value words, out-of-range blob pointers): residue on recycled
	// chunks that slipped past the WAL check code, or plain corruption.
	EntriesDropped       int
	EmptyLeavesReclaimed int
	// VirtualNS is the modeled recovery time on one timeline that starts
	// at zero when the pool restarts: the end of the last phase (replay),
	// whose threads started where the routing phase ended, which started
	// where the overlapped leaf walk and log scan ended.
	VirtualNS int64
}

// Open recovers a CCL-BTree from a pool that holds a previously created
// tree — after Pool.Crash, or after LoadPersistent in a new process.
// It implements the §3.3 failure recovery: rebuild the DRAM inner and
// buffer layers by walking the persistent leaf list, then replay WAL
// entries newer than their leaf's timestamp. threads sets the
// parallelism: one thread walks the leaf list while the others scan the
// log, then all of them route and replay.
//
// Deviation from §3.3 step 3: the paper resets leaf timestamps after
// replay because real rdtsc restarts at reboot, which would leave old
// stamps gating every post-reboot entry. This implementation instead
// resumes the ORDO domain above everything stamped in the image
// (Clock.AdvanceTo below), which makes the reset unnecessary — and, on
// this design's non-zeroed recycled chunks, actively wrong: zeroed
// leaf timestamps un-gate stale-but-intact log residue, and a crash
// after a later recovery would replay values that trigger writes (never
// logged, leaf-only) had long superseded. The torture harness's
// crash-recover-crash rounds catch exactly that resurrection.
func Open(pool *pmem.Pool, opts Options, threads int) (*Tree, *RecoveryStats, error) {
	return OpenIndex(pool, opts, threads, nil)
}

// OpenIndex is Open for an index whose directory is dir (nil: the
// tree's): dir.Build rebuilds the nodes, and the engine replays the log
// into them.
func OpenIndex(pool *pmem.Pool, opts Options, threads int, dir Directory) (*Tree, *RecoveryStats, error) {
	if threads < 1 {
		threads = 1
	}
	opts, alloc, err := setup(pool, opts)
	if err != nil {
		return nil, nil, err
	}
	home := opts.HomeSocket
	t0 := pool.NewThread(home)
	//persistlint:ignore PL012 t0 is recovery-dedicated; the scope holds until the thread is dropped at the end of Open
	t0.PushScope(pmem.ScopeRecovery)

	sb, err := readSuperblock(pool, t0, pmem.MakeAddr(home, alloc.BaseOffset()+sbOffset))
	if err != nil {
		return nil, nil, err
	}
	if idx, cnt := sbArena(sb.flags); idx != opts.ArenaIndex || cnt != opts.ArenaCount {
		return nil, nil, fmt.Errorf("core: tree was created as arena %d of %d, opened as %d of %d",
			idx, cnt, opts.ArenaIndex, opts.ArenaCount)
	}
	if other := sb.flags&sbIndex != 0; other != (dir != nil) {
		return nil, nil, fmt.Errorf("core: image and opener disagree on the directory (image is another index's: %v)", other)
	}
	chunkBytes := sb.chunkBytes

	opts.ChunkBytes = chunkBytes
	opts.VarKV = sb.flags&1 != 0
	opts.DirSlots = sb.dirSlots
	tr := newTree(pool, alloc, opts, dir)

	st := &RecoveryStats{}
	// rb.maxTick tracks the highest ORDO tick durably stamped anywhere in
	// the image (WAL entries and line flush timestamps). The new tree's
	// clock must resume above it: ticks restart at zero otherwise, and
	// any stale record left on a recycled chunk — a fully intact entry
	// from before the crash — would outrank every post-recovery append
	// at the NEXT crash, resurrecting overwritten values.
	rb := &Rebuild{tr: tr, t: t0, maxEnd: make([]uint64, pool.Sockets()),
		stamps: map[pmem.Addr]uint64{}, st: st}
	rb.track(sb.dirAddr, int64(sb.dirSlots*pmem.WordSize))

	chunks, err := sb.chunks(pool, t0)
	if err != nil {
		return nil, nil, err
	}
	for _, c := range chunks {
		rb.track(c, int64(chunkBytes))
	}
	st.ChunksScanned = len(chunks)

	// Recovery runs on one timeline that starts when the pool restarts:
	// t0 starts at zero, and every phase's threads start where the
	// previous phase ended. A pinned shard keeps even its recovery
	// threads on the home socket (the whole point of the placement); a
	// whole-device tree spreads them across sockets.
	recoverySocket := func(i int) int {
		if opts.ArenaCount > 1 {
			return home
		}
		return i % pool.Sockets()
	}
	scanThreads := make([]*pmem.Thread, threads)
	scanThreads[0] = t0
	for i := 1; i < threads; i++ {
		scanThreads[i] = pool.NewThread(recoverySocket(i))
		scanThreads[i].PushScope(pmem.ScopeRecovery)
	}
	syncClocks(scanThreads, t0.Now())

	// Phase 1: t0 walks the image, the directory rebuilding the buffer
	// nodes and the DRAM chain, while the other threads scan equal record
	// ranges of the live chunks. A lone thread walks, then scans. The walk
	// reports every line's stamp to rb, and nothing writes a stamp before
	// the candidates are routed against them below: the walk's only
	// write, an unlink, touches the predecessor's meta word.
	parts := max(threads-1, 1)
	entryLists := make([][]wal.Entry, parts)
	err = pmem.Parallel(threads, func(i int) error {
		if i == 0 {
			if _, err := tr.index.Build(tr, t0, sb.root, rb); err != nil || threads > 1 {
				return err
			}
		}
		part := max(i-1, 0)
		entryLists[part] = wal.ReadEntryPart(scanThreads[i], chunks, chunkBytes, part, parts)
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	chainPos := map[*bufferNode]int{}
	for n := tr.head; n != nil; n = n.next.Load() {
		chainPos[n] = len(chainPos)
	}
	st.Leaves = int64(len(chainPos))

	// Dedup the scanned entries to the newest version per logical key
	// (sequential, once every scanner is done).
	type pending struct {
		kv KV
		ts uint64
	}
	// candidates holds the newest version per logical key in scan order;
	// newest indexes it by logical-key hash.
	var candidates []pending
	newest := map[uint64][]int{}
	keyHash := func(kw uint64) uint64 {
		if !opts.VarKV {
			return kw
		}
		return hashKeyBytes(readBlob(t0, kw))
	}
	sameKey := func(a, b uint64) bool { return tr.compare(t0, a, b) == 0 }
	t0.SyncClock(endClock(scanThreads))
	for _, lst := range entryLists {
		for _, e := range lst {
			st.EntriesSeen++
			// A record whose words cannot have come from a real append
			// in this index is dropped rather than fatal, unlike
			// structural corruption: recycled chunks legitimately hold
			// residue, and recovery's job is to replay what is provably
			// intact.
			if rb.words(e.Key, e.Value) != nil {
				st.EntriesDropped++
				continue
			}
			rb.maxTick = max(rb.maxTick, e.Timestamp)
			h := keyHash(e.Key)
			found := false
			for _, c := range newest[h] {
				if sameKey(candidates[c].kv.Key, e.Key) {
					if e.Timestamp > candidates[c].ts {
						candidates[c] = pending{KV{e.Key, e.Value}, e.Timestamp}
					}
					found = true
					break
				}
			}
			if !found {
				newest[h] = append(newest[h], len(candidates))
				candidates = append(candidates, pending{KV{e.Key, e.Value}, e.Timestamp})
			}
		}
	}
	// Resume the tick domain above the image before the replay workers
	// start stamping: the rebuilt nodes' floors start at zero, so every
	// tick from here on, on any socket, must outrank every pre-crash one.
	tr.clock.AdvanceTo(rb.maxTick)
	// Phase 2: route each candidate and compare with its line's pre-crash
	// stamp as the walk read it (a DRAM lookup), in parallel. A survivor
	// keeps the node it routed to; a stale record keeps nil.
	route := make([]*bufferNode, len(candidates))
	syncClocks(scanThreads, t0.Now())
	err = pmem.Parallel(threads, func(i int) error {
		t := scanThreads[i]
		for j := i; j < len(candidates); j += threads {
			p := candidates[j]
			n := tr.index.Find(t, p.kv.Key)
			leafTS := rb.stamps[n.leaf]
			t.Advance(t.CostDRAM())
			if p.ts > leafTS {
				route[j] = n
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	// Group the survivors per node, in chain order. Replaying a node's
	// records as one batch is what makes recovery restartable: the flush
	// that stamps a line above every pre-crash tick carries all of that
	// node's records, so a crash inside replay never leaves a stamped
	// line with records still waiting in the log, which the next
	// recovery would gate out as stale.
	groups := make([][]KV, len(chainPos))
	for j, n := range route {
		if n == nil {
			st.EntriesStale++
			continue
		}
		groups[chainPos[n]] = append(groups[chainPos[n]], candidates[j].kv)
		st.EntriesReplayed++
	}
	groups = slices.DeleteFunc(groups, func(g []KV) bool { return len(g) == 0 })

	// The bump pointers must clear every reachable object before any
	// replay write allocates (splits).
	for s, end := range rb.maxEnd {
		tr.alloc.SetBump(s, end)
	}

	// Phase 3 (parallel): apply each group to its node with one
	// directory flush under the node's lock, groups round-robin over the
	// workers.
	// Splits during replay only mint nodes inside the splitting group's
	// own range, so every group's first key still routes to its node.
	workers := make([]*Worker, threads)
	routed := endClock(scanThreads)
	for i := range workers {
		workers[i] = tr.NewWorker(recoverySocket(i))
		workers[i].t.SyncClock(routed)
		// Replay traffic (leaf flushes, splits, log re-appends) is
		// recovery-caused; wal.Append still claims its own bytes.
		//persistlint:ignore PL012 replay workers live only for phase 3; their threads die scoped
		workers[i].t.PushScope(pmem.ScopeRecovery)
	}
	err = pmem.Parallel(threads, func(i int) error {
		w := workers[i]
		for g := i; g < len(groups); g += threads {
			n, v := w.lockOwner(groups[g][0].Key)
			_, err := tr.index.Flush(w, n, groups[g])
			n.unlock(v)
			if err != nil {
				return fmt.Errorf("core: recovery replay: %w", err)
			}
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}

	// Logs are now redundant: every surviving entry is durable in a
	// leaf. Rebuild the directory empty and recycle the chunk space.
	tr.dir = newChunkDir(pool.NewThread(home), sb.dirAddr, sb.dirSlots)
	tr.dir.prof = tr.prof
	tr.dir.clearAll()
	tr.walman.OnAcquire = tr.dir.register
	tr.walman.OnRelease = tr.dir.unregister
	tr.walman.AdoptChunks(chunks)

	for _, w := range workers {
		// Recovery is over; the workers stay registered (their logs are
		// reclaimed in later GC rounds) and must not keep attributing.
		w.t.PopScope(pmem.ScopeNone)
		st.VirtualNS = max(st.VirtualNS, w.t.Now())
	}
	tr.tracer.Emit(obs.EvRecovery, 0, st.VirtualNS,
		uint64(st.EntriesReplayed), uint64(st.EntriesStale))
	return tr, st, nil
}

// syncClocks starts every thread of a phase at v, where the previous
// phase ended.
func syncClocks(ts []*pmem.Thread, v int64) {
	for _, t := range ts {
		t.SyncClock(v)
	}
}

// endClock is when a phase ends: the clock of its slowest thread.
func endClock(ts []*pmem.Thread) int64 {
	var end int64
	for _, t := range ts {
		end = max(end, t.Now())
	}
	return end
}

// ProbeArenaCount reports how many arenas the pool was carved into when
// its trees were created, by reading the placement recorded in the
// shard-0 superblock (arena 0 starts at offset 0 for every count, and
// shard 0 is always homed on socket 0, so that superblock is at a fixed
// location regardless of the carving). It lets the DB frontend
// auto-detect the shard count on Open instead of requiring the caller
// to remember it. Returns an error if the pool holds no tree at all.
func ProbeArenaCount(pool *pmem.Pool) (int, error) {
	t := pool.NewThread(0)
	//persistlint:ignore PL012 probe thread is dropped at return; nothing to pop for
	t.PushScope(pmem.ScopeRecovery)
	sb, err := readSuperblock(pool, t, pmem.MakeAddr(0, sbOffset))
	if err != nil {
		return 0, err
	}
	_, count := sbArena(sb.flags)
	return count, nil
}

// superblock is an image's root record (layout in tree.go), as
// readSuperblock validated it.
type superblock struct {
	root, dirAddr        pmem.Addr
	dirSlots, chunkBytes int
	flags                uint64
}

// readSuperblock reads the superblock at sb on t. Open,
// ProbeArenaCount and Inspect all read it here, and everything below the
// magic word is untrusted until checked: a torn or corrupted image must
// surface as *CorruptError, never as an out-of-range panic or an
// endless walk.
func readSuperblock(pool *pmem.Pool, t *pmem.Thread, sb pmem.Addr) (superblock, error) {
	var w [sbWords]uint64
	t.ReadRange(sb, w[:])
	s := superblock{pmem.Addr(w[1]), pmem.Addr(w[2]), int(w[3]), int(w[4]), w[5]}
	switch {
	case w[0] != sbMagic:
		return s, fmt.Errorf("core: no tree found in pool (bad superblock magic %#x at %v)", w[0], sb)
	case !pool.ValidRange(s.root, LeafBytes) || s.root.Offset()%LeafBytes != 0:
		return s, corruptf("superblock", s.root, "head leaf address invalid")
	// Bound the slot count before the byte-size multiply: a poked word
	// like 0x2000000000008020 would overflow int64(dirSlots)*WordSize
	// into a small positive size that passes ValidRange, then panic in
	// make([]uint64, dirSlots).
	case s.dirSlots <= 0 || int64(s.dirSlots) > pool.DeviceBytes()/pmem.WordSize ||
		!pool.ValidRange(s.dirAddr, int64(s.dirSlots)*pmem.WordSize) ||
		s.dirAddr.Offset()%pmem.WordSize != 0:
		return s, corruptf("superblock", s.dirAddr, "chunk directory (%d slots) invalid", s.dirSlots)
	case s.chunkBytes <= 0 || s.chunkBytes%pmem.XPLineSize != 0 || int64(s.chunkBytes) > pool.DeviceBytes():
		return s, corruptf("superblock", pmem.NilAddr, "chunk size %d invalid", s.chunkBytes)
	}
	return s, nil
}

// chunks reads the chunk directory s names on t and checks every chunk
// address in it: on the device for a whole chunk, and line-aligned.
func (s superblock) chunks(pool *pmem.Pool, t *pmem.Thread) ([]pmem.Addr, error) {
	chunks := readChunkDir(t, s.dirAddr, s.dirSlots)
	for _, c := range chunks {
		if !pool.ValidRange(c, int64(s.chunkBytes)) || c.Offset()%pmem.XPLineSize != 0 {
			return nil, corruptf("chunk directory", c, "chunk address invalid")
		}
	}
	return chunks, nil
}
