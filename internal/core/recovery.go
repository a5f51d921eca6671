package core

import (
	"fmt"
	"sync"

	"cclbtree/internal/obs"
	"cclbtree/internal/ordo"
	"cclbtree/internal/pmalloc"
	"cclbtree/internal/pmem"
	"cclbtree/internal/pmleaf"
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
	// VirtualNS is the modeled recovery time: the sequential leaf-list
	// walk plus the slowest parallel replay worker.
	VirtualNS int64
}

// Open recovers a CCL-BTree from a pool that holds a previously created
// tree — after Pool.Crash, or after LoadPersistent in a new process.
// It implements the §3.3 failure recovery: rebuild the DRAM inner and
// buffer layers by walking the persistent leaf list, then replay WAL
// entries newer than their leaf's timestamp. threads sets the
// parallelism of the scan and replay phases.
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
	if threads < 1 {
		threads = 1
	}
	// Defaulting resolves the arena placement before the superblock is
	// located: the superblock lives at the arena's base on the home
	// socket, so a wrong placement finds no magic rather than another
	// tree's state.
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, nil, err
	}
	if opts.HomeSocket >= pool.Sockets() {
		return nil, nil, fmt.Errorf("core: home socket %d out of range (pool has %d)", opts.HomeSocket, pool.Sockets())
	}
	home := opts.HomeSocket
	alloc, err := pmalloc.NewArena(pool, opts.ArenaIndex, opts.ArenaCount)
	if err != nil {
		return nil, nil, fmt.Errorf("core: %w", err)
	}
	t0 := pool.NewThread(home)
	//persistlint:ignore PL012 t0 is recovery-dedicated; the scope holds until the thread is dropped at the end of Open
	t0.PushScope(pmem.ScopeRecovery)

	// Superblock.
	sb := pmem.MakeAddr(home, alloc.BaseOffset()+sbOffset)
	var sbw [sbWords]uint64
	t0.ReadRange(sb, sbw[:])
	if sbw[0] != sbMagic {
		return nil, nil, fmt.Errorf("core: no tree found in pool (bad superblock magic %#x at arena %d/%d, socket %d)",
			sbw[0], opts.ArenaIndex, opts.ArenaCount, home)
	}
	headLeaf := pmem.Addr(sbw[1])
	dirAddr := pmem.Addr(sbw[2])
	dirSlots := int(sbw[3])
	chunkBytes := int(sbw[4])
	varKV := sbw[5]&1 != 0
	if idx, cnt := sbArena(sbw[5]); idx != opts.ArenaIndex || cnt != opts.ArenaCount {
		return nil, nil, fmt.Errorf("core: tree was created as arena %d of %d, opened as %d of %d",
			idx, cnt, opts.ArenaIndex, opts.ArenaCount)
	}

	// Everything below the magic word is untrusted until validated: a
	// torn or corrupted image must surface as *CorruptError, never as an
	// out-of-range panic or an endless walk.
	if !pool.ValidRange(headLeaf, LeafBytes) || headLeaf.Offset()%LeafBytes != 0 {
		return nil, nil, corruptf("superblock", headLeaf, "head leaf address invalid")
	}
	// Bound the slot count before the byte-size multiply: a poked word
	// like 0x2000000000008020 would overflow int64(dirSlots)*WordSize
	// into a small positive size that passes ValidRange, then panic in
	// make([]uint64, dirSlots).
	if dirSlots <= 0 || int64(dirSlots) > pool.DeviceBytes()/pmem.WordSize ||
		!pool.ValidRange(dirAddr, int64(dirSlots)*pmem.WordSize) ||
		dirAddr.Offset()%pmem.WordSize != 0 {
		return nil, nil, corruptf("superblock", dirAddr, "chunk directory (%d slots) invalid", dirSlots)
	}
	if chunkBytes <= 0 || chunkBytes%pmem.XPLineSize != 0 || int64(chunkBytes) > pool.DeviceBytes() {
		return nil, nil, corruptf("superblock", pmem.NilAddr, "chunk size %d invalid", chunkBytes)
	}

	opts.ChunkBytes = chunkBytes
	opts.VarKV = varKV
	opts.DirSlots = dirSlots

	tr := &Tree{
		pool:   pool,
		alloc:  alloc,
		clock:  ordo.New(pool.Sockets(), defaultOrdo),
		opts:   opts,
		gcDone: make(chan struct{}),
	}
	close(tr.gcDone)
	tr.reclaim.init()
	tr.inner = newInnerTree(tr.compare)
	tr.walman = wal.NewManager(tr.alloc, opts.ChunkBytes)
	tr.initObs()
	tr.inner.prof = tr.prof

	st := &RecoveryStats{}
	// maxTick tracks the highest ORDO tick durably stamped anywhere in
	// the image (WAL entries and leaf flush timestamps). The new tree's
	// clock must resume above it: ticks restart at zero otherwise, and
	// any stale record left on a recycled chunk — a fully intact entry
	// from before the crash — would outrank every post-recovery append
	// at the NEXT crash, resurrecting overwritten values.
	maxTick := uint64(0)
	noteTick := func(ts uint64) {
		if ts > maxTick {
			maxTick = ts
		}
	}
	maxEnd := make([]uint64, pool.Sockets())
	track := func(a pmem.Addr, size int64) {
		if end := a.Offset() + uint64(size); end > maxEnd[a.Socket()] {
			maxEnd[a.Socket()] = end
		}
	}
	// trackWord validates an indirection pointer before chasing it and
	// extends the allocator high-water mark over the blob it names.
	trackWord := func(w uint64) error {
		if !IsBlobWord(w) {
			return nil
		}
		a := blobAddr(w)
		if !pool.ValidRange(a, pmem.WordSize) || a.Offset()%pmem.WordSize != 0 {
			return corruptf("blob", a, "pointer invalid")
		}
		n := int64(t0.Load(a))
		if n < 0 || n > blobArenaChunk {
			return corruptf("blob", a, "length %d impossible", n)
		}
		size := 8 * (1 + (n+7)/8)
		if !pool.ValidRange(a, size) {
			return corruptf("blob", a, "%d-byte blob runs off the device", n)
		}
		track(a, size)
		return nil
	}
	// keyOK/valOK check that a stored word is possible in this tree's
	// mode — the superblock's VarKV flag is itself untrusted, and a
	// flipped flag would otherwise make recovery (and every later
	// lookup) chase plain integers as blob pointers or vice versa.
	keyOK := func(w uint64) bool {
		if opts.VarKV {
			return IsBlobWord(w)
		}
		return w >= 1 && w <= MaxValue
	}
	valOK := func(w uint64) bool {
		if w == Tombstone || IsBlobWord(w) {
			return true // tombstones and out-of-band blobs occur in both modes
		}
		return !opts.VarKV && w <= MaxValue
	}
	track(dirAddr, int64(dirSlots*pmem.WordSize))

	// Phase 1 (sequential): walk the persistent leaf list, rebuilding
	// buffer nodes, the DRAM chain, and the inner directory. Empty
	// non-head leaves are unlinked and reclaimed on the way.
	chunks := readChunkDir(t0, dirAddr, dirSlots)
	for _, c := range chunks {
		if !pool.ValidRange(c, int64(chunkBytes)) || c.Offset()%pmem.XPLineSize != 0 {
			return nil, nil, corruptf("chunk directory", c, "chunk address invalid")
		}
		track(c, int64(chunkBytes))
	}
	st.ChunksScanned = len(chunks)

	var nodes []*bufferNode
	var slab nodeSlab
	var emptyLeaves []pmem.Addr
	var prevNode *bufferNode
	prevLeaf := pmem.NilAddr
	seen := map[pmem.Addr]bool{headLeaf: true}
	cur := headLeaf
	for !cur.IsNil() {
		var img pmleaf.Image
		img.Read(t0, cur)
		track(cur, LeafBytes)
		// Leaf flush timestamps come from the same clock that stamps WAL
		// entries, so they share its bound; anything larger is corruption
		// (and would poison the resumed clock below).
		if img.TS() > wal.MaxTick {
			return nil, nil, corruptf("leaf", cur, "flush timestamp %#x impossible", img.TS())
		}
		noteTick(img.TS())
		next := img.Next()
		if !next.IsNil() {
			if !pool.ValidRange(next, LeafBytes) || next.Offset()%LeafBytes != 0 {
				return nil, nil, corruptf("leaf list", next, "next pointer invalid")
			}
			if seen[next] {
				return nil, nil, corruptf("leaf list", next, "cycle detected")
			}
			seen[next] = true
		}
		if img.Bitmap() == 0 && cur != headLeaf {
			// Unlink: predecessor's meta gets our successor, one
			// atomic word. The leaf is reclaimed afterwards.
			var pimg pmleaf.Image
			pimg.Read(t0, prevLeaf)
			pimg.SetMeta(pmleaf.PackMeta(pimg.Bitmap(), next))
			t0.Store(pmleaf.MetaAddr(prevLeaf), pimg.Meta())
			t0.Persist(prevLeaf, pmem.WordSize)
			emptyLeaves = append(emptyLeaves, cur)
			st.EmptyLeavesReclaimed++
			cur = next
			continue
		}
		for i := 0; i < LeafSlots; i++ {
			if !img.Valid(i) {
				continue
			}
			if !keyOK(img.Key(i)) || !valOK(img.Val(i)) {
				return nil, nil, corruptf("leaf", cur, "slot %d words impossible in this mode", i)
			}
			if err := trackWord(img.Key(i)); err != nil {
				return nil, nil, err
			}
			if err := trackWord(img.Val(i)); err != nil {
				return nil, nil, err
			}
		}
		lowKey := uint64(0)
		if cur != headLeaf {
			first := true
			for i := 0; i < LeafSlots; i++ {
				if !img.Valid(i) {
					continue
				}
				if first || tr.compare(t0, img.Key(i), lowKey) < 0 {
					lowKey = img.Key(i)
					first = false
				}
			}
		}
		// Leaves must be ordered: low keys strictly increase along the
		// chain. A violation would send the replay router in circles
		// (findBuffer routes by key order, rangeOK checks chain order).
		if prevNode != nil && tr.compare(t0, lowKey, prevNode.lowKey) <= 0 {
			return nil, nil, corruptf("leaf list", cur, "low keys out of order")
		}
		n := slab.newNode(cur, lowKey, opts.Nbatch)
		if prevNode != nil {
			prevNode.next.Store(n)
			n.prev.Store(prevNode)
		} else {
			tr.head = n
		}
		tr.inner.put(t0, lowKey, n)
		nodes = append(nodes, n)
		tr.leafCount.Add(1)
		prevNode = n
		prevLeaf = cur
		cur = next
	}
	st.Leaves = int64(len(nodes))

	// Phase 2: scan all live chunks (parallel over chunks), dedup
	// entries to the newest version per logical key, and decide replay
	// vs stale by comparing with the pre-crash leaf timestamps
	// (parallel over entries). No writes happen here, so the timestamp
	// comparisons are stable even though later replay may split leaves.
	// A pinned shard keeps even its recovery threads on the home socket
	// (the whole point of the placement); a whole-device tree spreads
	// them across sockets as before.
	recoverySocket := func(i int) int {
		if opts.ArenaCount > 1 {
			return home
		}
		return i % pool.Sockets()
	}
	scanThreads := make([]*pmem.Thread, threads)
	for i := range scanThreads {
		scanThreads[i] = pool.NewThread(recoverySocket(i))
		scanThreads[i].PushScope(pmem.ScopeRecovery)
	}
	entryLists := make([][]wal.Entry, threads)
	var wgScan sync.WaitGroup
	for i := 0; i < threads; i++ {
		wgScan.Add(1)
		go func(i int) {
			defer wgScan.Done()
			for j := i; j < len(chunks); j += threads {
				entryLists[i] = append(entryLists[i],
					wal.ReadEntriesInChunks(scanThreads[i], []pmem.Addr{chunks[j]}, chunkBytes)...)
			}
		}(i)
	}
	wgScan.Wait()

	type pending struct {
		kv KV
		ts uint64
	}
	newest := map[uint64][]pending{} // logical-key hash -> candidates
	keyHash := func(kw uint64) uint64 {
		if !opts.VarKV {
			return kw
		}
		return hashKeyBytes(readBlob(t0, kw))
	}
	sameKey := func(a, b uint64) bool { return tr.compare(t0, a, b) == 0 }
	// entryOK rejects records whose words cannot have come from a real
	// append in this tree's mode. Unlike structural corruption, a bad log
	// record is dropped rather than fatal: recycled chunks legitimately
	// hold residue, and recovery's job is to replay what is provably
	// intact.
	entryOK := func(e wal.Entry) bool { return keyOK(e.Key) && valOK(e.Value) }
	for _, lst := range entryLists {
		for _, e := range lst {
			st.EntriesSeen++
			if !entryOK(e) || trackWord(e.Key) != nil || trackWord(e.Value) != nil {
				st.EntriesDropped++
				continue
			}
			noteTick(e.Timestamp)
			h := keyHash(e.Key)
			bucket := newest[h]
			found := false
			for i := range bucket {
				if sameKey(bucket[i].kv.Key, e.Key) {
					if e.Timestamp > bucket[i].ts {
						bucket[i] = pending{KV{e.Key, e.Value}, e.Timestamp}
					}
					found = true
					break
				}
			}
			if !found {
				bucket = append(bucket, pending{KV{e.Key, e.Value}, e.Timestamp})
			}
			newest[h] = bucket
		}
	}
	candidates := make([]pending, 0, len(newest))
	for _, bucket := range newest {
		candidates = append(candidates, bucket...)
	}
	// Resume the tick domain past the image (plus the uncertainty
	// boundary, so post-recovery ticks are *definitely* after pre-crash
	// ones) before the replay workers start stamping.
	tr.clock.AdvanceTo(maxTick + defaultOrdo)
	// Route each candidate and compare with its leaf's pre-crash
	// timestamp, in parallel (read-only).
	replayLists := make([][]KV, threads)
	staleCounts := make([]int, threads)
	for i := 0; i < threads; i++ {
		wgScan.Add(1)
		go func(i int) {
			defer wgScan.Done()
			t := scanThreads[i]
			for j := i; j < len(candidates); j += threads {
				p := candidates[j]
				n := tr.findBuffer(t, p.kv.Key)
				leafTS := t.Load(pmleaf.TSAddr(n.leaf))
				if p.ts > leafTS {
					replayLists[i] = append(replayLists[i], p.kv)
				} else {
					staleCounts[i]++
				}
			}
		}(i)
	}
	wgScan.Wait()
	var replay []KV
	for i := range replayLists {
		replay = append(replay, replayLists[i]...)
		st.EntriesStale += staleCounts[i]
	}
	st.EntriesReplayed = len(replay)

	// The bump pointers must clear every reachable object before any
	// replay write allocates (splits).
	for s := range maxEnd {
		tr.alloc.SetBump(s, maxEnd[s])
	}
	for _, a := range emptyLeaves {
		tr.alloc.Free(a, LeafBytes)
	}

	// Phase 3 (parallel): apply surviving entries directly to leaves
	// through the normal batch-insert machinery (locking per node, so
	// splits during replay stay correct).
	workers := make([]*Worker, threads)
	for i := range workers {
		workers[i] = tr.NewWorker(recoverySocket(i))
		// Replay traffic (leaf flushes, splits, log re-appends) is
		// recovery-caused; wal.Append still claims its own bytes.
		//persistlint:ignore PL012 replay workers live only for phase 3; their threads die scoped
		workers[i].t.PushScope(pmem.ScopeRecovery)
	}
	var wg sync.WaitGroup
	replayErrs := make([]error, threads)
	for i, w := range workers {
		wg.Add(1)
		go func(i int, w *Worker) {
			defer wg.Done()
			for j := i; j < len(replay); j += threads {
				if err := w.replayApply(replay[j]); err != nil {
					replayErrs[i] = err
					return
				}
			}
		}(i, w)
	}
	wg.Wait()
	for _, err := range replayErrs {
		if err != nil {
			return nil, nil, err
		}
	}

	// Logs are now redundant: every surviving entry is durable in a
	// leaf. Rebuild the directory empty and recycle the chunk space.
	tr.dir = newChunkDir(pool.NewThread(home), dirAddr, dirSlots)
	tr.dir.prof = tr.prof
	tr.dir.clearAll()
	tr.walman.OnAcquire = tr.dir.register
	tr.walman.OnRelease = tr.dir.unregister
	tr.walman.AdoptChunks(chunks)

	var maxWorker int64
	for _, w := range workers {
		// Recovery is over; the workers stay registered (their logs are
		// reclaimed in later GC rounds) and must not keep attributing.
		w.t.PopScope(pmem.ScopeNone)
		if w.t.Now() > maxWorker {
			maxWorker = w.t.Now()
		}
	}
	var maxScan int64
	for _, t := range scanThreads {
		if t.Now() > maxScan {
			maxScan = t.Now()
		}
	}
	st.VirtualNS = t0.Now() + maxScan + maxWorker
	tr.tracer.Emit(obs.EvRecovery, 0, st.VirtualNS,
		uint64(st.EntriesReplayed), uint64(st.EntriesStale))
	return tr, st, nil
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
	var sbw [sbWords]uint64
	t.ReadRange(pmem.MakeAddr(0, sbOffset), sbw[:])
	if sbw[0] != sbMagic {
		return 0, fmt.Errorf("core: no tree found in pool (bad superblock magic %#x)", sbw[0])
	}
	_, count := sbArena(sbw[5])
	return count, nil
}

// replayApply routes one recovered KV to its leaf and applies it with
// the normal crash-consistent batch insert.
func (w *Worker) replayApply(kv KV) error {
	n, v := w.lockOwner(kv.Key)
	_, err := w.leafBatchInsert(n, []KV{kv})
	n.unlock(v)
	if err != nil {
		return fmt.Errorf("core: recovery replay: %w", err)
	}
	return nil
}
