package core

import (
	"cmp"
	"fmt"
	"slices"

	"cclbtree/internal/obs"
	"cclbtree/internal/pmalloc"
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
	// UncarvedLines counts the lines a chain reached outside every
	// recorded carve, which recovery then read from PM one at a time: 0
	// unless the carve directory lost a record.
	UncarvedLines int
	// The phase ends, on the restart timeline (ns): discovery of the
	// carved lines beside the log scan; the link pass over the chain and
	// the log's dedup; routing; replay. Each phase starts where the one
	// before it ended.
	DiscoverEndNS, LinkEndNS, RouteEndNS, ReplayEndNS int64
	// VirtualNS is the modeled recovery time on one timeline that starts
	// at zero when the pool restarts: the end of the last phase,
	// ReplayEndNS.
	VirtualNS int64
}

// Open recovers a CCL-BTree from a pool that holds a previously created
// tree — after Pool.Crash, or after LoadPersistent in a new process.
// It implements the §3.3 failure recovery: rebuild the DRAM inner and
// buffer layers from the persistent leaf list, then replay WAL entries
// newer than their leaf's timestamp. threads sets the parallelism of
// every phase but the link pass: discovery and log scan, routing and
// replay.
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
	threads = max(threads, 1)
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
	rb.track(sb.dirAddr, int64((sb.dirSlots+sb.carveSlots+1)*pmem.WordSize))

	chunks, err := sb.chunks(pool, t0)
	if err != nil {
		return nil, nil, err
	}
	if rb.carves, err = sb.carves(pool, t0); err != nil {
		return nil, nil, err
	}
	rb.found = make([][]foundLine, len(rb.carves))
	// PM work per socket, in lines: each recorded carve's, and each log
	// chunk's.
	work := make([]int64, pool.Sockets())
	for _, c := range rb.carves {
		rb.track(c.Start, int64(c.Lines*LeafBytes))
		work[c.Start.Socket()] += int64(c.Lines)
	}
	for _, c := range chunks {
		rb.track(c, int64(chunkBytes))
		work[c.Socket()] += int64(chunkBytes / LeafBytes)
	}
	st.ChunksScanned = len(chunks)

	// Recovery runs on one timeline that starts when the pool restarts:
	// t0 starts at zero, and every phase's threads start where the
	// previous phase ended, seated where its PM work is (seat).
	//
	// Phase 1: the threads on each socket read that socket's recorded
	// carves into rb's table (discover) and its log chunks, each a share
	// of both. Nothing writes a stamp before the candidates are routed
	// against the stamps the link pass reads from the table.
	seats := seat(threads, work, home)
	phase := make([]*pmem.Thread, threads)
	for i := range phase {
		phase[i] = pool.NewThread(seats[i])
		phase[i].PushScope(pmem.ScopeRecovery)
	}
	syncClocks(phase, t0.Now())
	carvesOn := make([][]int, pool.Sockets())
	for i, c := range rb.carves {
		carvesOn[c.Start.Socket()] = append(carvesOn[c.Start.Socket()], i)
	}
	chunksOn := make([][]pmem.Addr, pool.Sockets())
	for _, c := range chunks {
		chunksOn[c.Socket()] = append(chunksOn[c.Socket()], c)
	}
	entryLists := make([][]wal.Entry, threads)
	err = pmem.Parallel(threads, func(i int) error {
		t := phase[i]
		for _, sh := range shares(seats, pool.Sockets(), i) {
			for j := sh.k; j < len(carvesOn[sh.s]); j += sh.n {
				rb.discover(t, carvesOn[sh.s][j])
			}
			entryLists[i] = append(entryLists[i], wal.ReadEntryPart(t, chunksOn[sh.s], chunkBytes, sh.k, sh.n)...)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	st.DiscoverEndNS = endClock(phase)

	// Phase 2, on t0: the directory links its nodes by following its
	// chains over the table (a DRAM pass; its only write, an unlink,
	// touches the predecessor's meta word), then the scanned entries are
	// deduplicated to the newest version per logical key.
	t0.SyncClock(st.DiscoverEndNS)
	if _, err := tr.index.Build(tr, t0, sb.root, rb); err != nil {
		return nil, nil, err
	}
	rb.found = nil
	chainPos := map[*bufferNode]int{}
	var chain []*bufferNode
	for n := tr.head; n != nil; n = n.next.Load() {
		chainPos[n] = len(chain)
		chain = append(chain, n)
	}
	st.Leaves = int64(len(chain))

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
	var blobs []blobSpan
	for _, lst := range entryLists {
		for _, e := range lst {
			st.EntriesSeen++
			// A record whose words cannot have come from a real append
			// in this index is dropped rather than fatal, unlike
			// structural corruption: recycled chunks legitimately hold
			// residue, and recovery's job is to replay what is provably
			// intact.
			var err error
			if blobs, err = rb.words(t0, e.Key, e.Value, blobs[:0]); err != nil {
				st.EntriesDropped++
				continue
			}
			for _, b := range blobs {
				rb.track(b.a, b.size)
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
	st.LinkEndNS = t0.Now()
	// Resume the tick domain above the image before the replay workers
	// start stamping: the rebuilt nodes' floors start at zero, so every
	// tick from here on, on any socket, must outrank every pre-crash one.
	tr.clock.AdvanceTo(rb.maxTick)

	// Phase 3: route each candidate and compare with its line's pre-crash
	// stamp as the link pass read it (a DRAM lookup), in parallel on the
	// phase-1 threads. A survivor keeps the node it routed to; a stale
	// record keeps nil.
	route := make([]*bufferNode, len(candidates))
	syncClocks(phase, st.LinkEndNS)
	err = pmem.Parallel(threads, func(i int) error {
		t := phase[i]
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
	st.RouteEndNS = endClock(phase)
	// Group the survivors per node, in chain order. Replaying a node's
	// records as one batch is what makes recovery restartable: the flush
	// that stamps a line above every pre-crash tick carries all of that
	// node's records, so a crash inside replay never leaves a stamped
	// line with records still waiting in the log, which the next
	// recovery would gate out as stale.
	groups := make([][]KV, len(chain))
	for j, n := range route {
		if n == nil {
			st.EntriesStale++
			continue
		}
		groups[chainPos[n]] = append(groups[chainPos[n]], candidates[j].kv)
		st.EntriesReplayed++
	}
	// Each socket's groups, in chain order: replay seats its workers by
	// where the lines it writes are.
	groupsOn := make([][]int, pool.Sockets())
	clear(work)
	for i, n := range chain {
		if len(groups[i]) > 0 {
			groupsOn[n.leaf.Socket()] = append(groupsOn[n.leaf.Socket()], i)
			work[n.leaf.Socket()]++
		}
	}

	// The bump pointers must clear every reachable object before any
	// replay write allocates (splits), and the carve directory must
	// record the carves those splits take, after the ones it holds.
	for s, end := range rb.maxEnd {
		tr.alloc.SetBump(s, end)
	}
	tr.dir = newChunkDir(dirThread(pool, home), sb.dirAddr, sb.dirSlots, sb.carveSlots, len(rb.carves))
	tr.dir.prof = tr.prof
	tr.alloc.SetCarveRecorder(tr.dir.recordCarve)

	// Phase 4: each worker applies its share of its socket's groups, in
	// chain order, in waves of replayWave groups (wave.go): it locks the
	// node phase 3 routed each group to, stages the group into it, and
	// publishes the wave's nodes before it unlocks them. Splits during
	// replay only mint nodes inside the splitting group's own range, so
	// every group's node still owns its first key; a node that does not
	// is routed again. Each wave locks its nodes in chain order, the one
	// lock order every writer shares.
	seats = seat(threads, work, home)
	workers := make([]*Worker, threads)
	for i := range workers {
		workers[i] = tr.NewWorker(seats[i])
		workers[i].t.SyncClock(st.RouteEndNS)
		// Replay traffic (leaf flushes, splits, log re-appends) is
		// recovery-caused; wal.Append still claims its own bytes.
		//persistlint:ignore PL012 replay workers live only for phase 4; their threads die scoped
		workers[i].t.PushScope(pmem.ScopeRecovery)
	}
	err = pmem.Parallel(threads, func(i int) error {
		w := workers[i]
		var mine []int // chain positions of the worker's groups
		for _, sh := range shares(seats, pool.Sockets(), i) {
			for j := sh.k; j < len(groupsOn[sh.s]); j += sh.n {
				mine = append(mine, groupsOn[sh.s][j])
			}
		}
		slices.Sort(mine)
		held := make([]groupRun, 0, replayWave)
		for len(mine) > 0 {
			wave := mine[:min(replayWave, len(mine))]
			mine = mine[len(wave):]
			w.wave, held = w.wave[:0], held[:0]
			var err error
			for _, gi := range wave {
				g, n := groups[gi], chain[gi]
				v, ok := n.tryLock()
				if ok && !tr.index.Owns(w.t, n, g[0].Key) {
					n.unlock(v)
					ok = false
				}
				if !ok {
					n, v = w.lockOwner(g[0].Key)
				}
				held = append(held, groupRun{n: n, v: v})
				if _, err = w.stage(n, g, len(wave) > 1); err != nil {
					break
				}
			}
			if err == nil {
				w.publish()
			}
			for _, h := range held {
				h.n.unlock(h.v)
			}
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
	// leaf. Empty the chunk slots and recycle the chunk space.
	tr.dir.clearAll()
	tr.walman.OnAcquire = tr.dir.register
	tr.walman.OnRelease = tr.dir.unregister
	tr.walman.AdoptChunks(chunks)

	for _, w := range workers {
		// Recovery is over; the workers stay registered (their logs are
		// reclaimed in later GC rounds) and must not keep attributing.
		w.t.PopScope(pmem.ScopeNone)
		st.ReplayEndNS = max(st.ReplayEndNS, w.t.Now())
	}
	st.VirtualNS = st.ReplayEndNS
	tr.tracer.Emit(obs.EvRecovery, 0, st.VirtualNS,
		uint64(st.EntriesReplayed), uint64(st.EntriesStale))
	return tr, st, nil
}

// seat places n threads on sockets in proportion to work, the PM work
// on each socket, and returns each thread's socket, in socket order.
// Every socket with work gets a thread while threads last, the busiest
// first; each further thread goes where the work per thread is largest.
// With no work at all, every thread sits on home.
func seat(n int, work []int64, home int) []int {
	var busy []int
	for s, w := range work {
		if w > 0 {
			busy = append(busy, s)
		}
	}
	per := make([]int, len(work))
	if len(busy) == 0 {
		per[home] = n
	} else {
		slices.SortStableFunc(busy, func(a, b int) int { return cmp.Compare(work[b], work[a]) })
		for i := range n {
			best := busy[0]
			if i < len(busy) {
				best = busy[i]
			} else {
				for _, s := range busy[1:] {
					if work[s]*int64(per[best]) > work[best]*int64(per[s]) {
						best = s
					}
				}
			}
			per[best]++
		}
	}
	seats := make([]int, 0, n)
	for s, k := range per {
		for range k {
			seats = append(seats, s)
		}
	}
	return seats
}

// share is the part of one socket's work a thread takes: items k,
// k+n, … of it.
type share struct{ s, k, n int }

// shares lists the parts thread i of a phase seated at seats takes, one
// per socket it shares: a socket's work is shared by the threads seated
// on it, or by every thread when none is (fewer threads than busy
// sockets).
func shares(seats []int, sockets, i int) []share {
	var out []share
	for s := range sockets {
		lo, n := slices.Index(seats, s), 0
		for _, x := range seats {
			if x == s {
				n++
			}
		}
		switch {
		case n == 0:
			out = append(out, share{s, i, len(seats)})
		case seats[i] == s:
			out = append(out, share{s, i - lo, n})
		}
	}
	return out
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
	root, dirAddr                    pmem.Addr
	dirSlots, chunkBytes, carveSlots int
	flags                            uint64
}

// readSuperblock reads the superblock at sb on t. Open,
// ProbeArenaCount and Inspect all read it here, and everything below the
// magic word is untrusted until checked: a torn or corrupted image must
// surface as *CorruptError, never as an out-of-range panic or an
// endless walk.
func readSuperblock(pool *pmem.Pool, t *pmem.Thread, sb pmem.Addr) (superblock, error) {
	var w [sbWords]uint64
	t.ReadRange(sb, w[:])
	s := superblock{pmem.Addr(w[1]), pmem.Addr(w[2]), int(w[3]), int(w[4]), int(w[6]), w[5]}
	switch {
	case w[0] == sbMagicNoCarves:
		return s, fmt.Errorf("core: image at %v predates the carve directory; recreate it", sb)
	case w[0] != sbMagic:
		return s, fmt.Errorf("core: no tree found in pool (bad superblock magic %#x at %v)", w[0], sb)
	case !pool.ValidRange(s.root, LeafBytes) || s.root.Offset()%LeafBytes != 0:
		return s, corruptf("superblock", s.root, "head leaf address invalid")
	// Bound the slot count before the byte-size multiply: a poked word
	// like 0x2000000000008020 would overflow int64(dirSlots)*WordSize
	// into a small positive size that passes ValidRange, then panic in
	// make([]uint64, dirSlots).
	case s.dirSlots <= 0 || int64(s.dirSlots) > pool.DeviceBytes()/pmem.WordSize ||
		s.carveSlots <= 0 || int64(s.carveSlots) > pool.DeviceBytes()/pmem.WordSize ||
		!pool.ValidRange(s.dirAddr, int64(s.dirSlots+s.carveSlots+1)*pmem.WordSize) ||
		s.dirAddr.Offset()%pmem.WordSize != 0:
		return s, corruptf("superblock", s.dirAddr, "chunk directory (%d slots, %d carve records) invalid",
			s.dirSlots, s.carveSlots)
	case s.chunkBytes <= 0 || s.chunkBytes%pmem.XPLineSize != 0 || int64(s.chunkBytes) > pool.DeviceBytes():
		return s, corruptf("superblock", pmem.NilAddr, "chunk size %d invalid", s.chunkBytes)
	}
	return s, nil
}

// carves reads the carve directory s names on t and checks every carve
// in it: its lines on the device and line-aligned. They come back in
// address order.
func (s superblock) carves(pool *pmem.Pool, t *pmem.Thread) ([]pmalloc.Carve, error) {
	carves := readCarves(t, s.dirAddr, s.dirSlots, s.carveSlots)
	for _, c := range carves {
		if !pool.ValidRange(c.Start, int64(c.Lines*LeafBytes)) || c.Start.Offset()%LeafBytes != 0 {
			return nil, corruptf("carve directory", c.Start, "carve of %d lines invalid", c.Lines)
		}
	}
	slices.SortFunc(carves, func(a, b pmalloc.Carve) int { return cmp.Compare(a.Start, b.Start) })
	return carves, nil
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
