package core

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"sort"

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
	// carved lines beside the log scan and its record check; the link
	// pass over the chain; routing, the sort-merge that dedups the log
	// and gates it by the stamps; replay. Each phase starts where the
	// one before it ended.
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
// newer than their leaf's timestamp, into their buffer nodes' slots
// where they fit. threads sets the parallelism of
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
	r, err := route(pool, opts, threads, dir)
	if err != nil {
		return nil, nil, err
	}
	tr, st, rb, sb, groups := r.tr, r.st, r.rb, r.sb, r.groups
	home := tr.opts.HomeSocket
	// Each socket's groups, in chain order: replay seats its workers by
	// where the lines it writes are.
	groupsOn := make([][]int, pool.Sockets())
	work := make([]int64, pool.Sockets())
	for i, g := range groups {
		s := g.n.leaf.Socket()
		groupsOn[s] = append(groupsOn[s], i)
		work[s]++
	}

	// The bump pointers must clear every reachable object before any
	// replay write allocates (splits), and the carve directory must
	// record the carves those splits take, after the ones it holds. The
	// chunk directory holds the chunks it names at the slots it names
	// them in, until the end of Open releases the ones no record needs.
	for s, end := range rb.maxEnd {
		tr.alloc.SetBump(s, end)
	}
	tr.dir = newChunkDir(dirThread(pool, home), sb.dirAddr, sb.dirSlots, sb.carveSlots, len(rb.carves))
	tr.initLock(&tr.dir.mu, obs.LockChunkDir)
	tr.dir.hold(r.chunks, r.slots)
	tr.alloc.SetCarveRecorder(tr.dir.recordCarve)

	// Phase 4: each worker replays its share of its socket's groups, in
	// chain order (Worker.replay): into buffer slots, or through the
	// node's line when a group overflows its buffer. The workers start
	// where routing ended, not at the pool's work frontier: discovery's
	// reads may still queue on some DIMMs, and only an access to one of
	// them should wait for them.
	e := tr.epoch.Load()
	seats := seat(threads, work, home)
	workers := make([]*Worker, threads)
	keeps := make([][]bool, threads)
	for i := range workers {
		workers[i] = tr.NewWorker(seats[i])
		workers[i].t.Rewind(st.RouteEndNS)
		workers[i].t.SyncClock(st.RouteEndNS)
		// Replay traffic (leaf flushes, splits) is recovery-caused. The
		// scope is popped once replay ends.
		workers[i].t.PushScope(pmem.ScopeRecovery)
		keeps[i] = make([]bool, len(r.chunks))
	}
	err = pmem.Parallel(threads, func(i int) error {
		var mine []int // the worker's groups, by position in chain order
		for _, sh := range shares(seats, pool.Sockets(), i) {
			for j := sh.k; j < len(groupsOn[sh.s]); j += sh.n {
				mine = append(mine, groupsOn[sh.s][j])
			}
		}
		slices.Sort(mine)
		return workers[i].replay(groups, mine, e, keeps[i])
	})
	if err != nil {
		return nil, nil, err
	}

	// The chunks that hold a record now in a slot stay registered and
	// become worker 0's log of epoch e, so the first GC round copies
	// (or flushes) those slots before it reclaims them, as it does for
	// any buffered entry, and the log's bytes count toward its trigger.
	// Every other chunk holds no record recovery still needs: the slot
	// groups' other records are older or gated, and the waves made
	// theirs durable in lines. They are unregistered one slot at a time
	// and free-listed.
	var kept, spare []pmem.Addr
	for c, a := range r.chunks {
		if slices.ContainsFunc(keeps, func(k []bool) bool { return k[c] }) {
			kept = append(kept, a)
		} else {
			spare = append(spare, a)
		}
	}
	tr.walman.OnAcquire = tr.dir.register
	tr.walman.OnRelease = tr.dir.unregister
	tr.walman.AdoptChunks(spare)
	workers[0].logs[e].Adopt(kept)
	tr.logBytes.Add(workers[0].logs[e].Bytes())

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

// replay applies the groups mine names, in chain order, one node
// locked at a time. A group that fits its node's buffer goes into its
// slots (refill) and marks the chunks its records are in as kept: it
// stays what it was at the crash, a buffered entry whose record is in
// the log. A larger group (a neighbour's group joined by the records of
// a leaf the link pass reclaimed, or one of an image written with larger
// buffers before the superblock recorded Nbatch) is staged as a trigger
// write and published as a wave of one (wave.go) before the node is
// unlocked.
// Splits during replay only mint nodes inside the splitting group's own
// range, so every group's node still owns its first key; a node that
// does not is routed again (lockGroup).
func (w *Worker) replay(groups []group, mine []int, e uint32, keep []bool) error {
	for _, gi := range mine {
		g := &groups[gi]
		n, v := w.lockGroup(g)
		kvs, fits := w.refill(n, g.recs, e)
		var err error
		if fits {
			for _, p := range g.recs {
				keep[p.chunk] = true
			}
		} else {
			w.wave = w.wave[:0]
			if _, err = w.stage(n, kvs, false); err == nil {
				w.publish()
			}
		}
		n.unlock(v)
		if err != nil {
			return fmt.Errorf("core: recovery replay: %w", err)
		}
	}
	return nil
}

// lockGroup locks the node phase 3 routed g to, charging the lock and
// the Owns check, or the owner of g's first key if that node no longer
// owns it.
func (w *Worker) lockGroup(g *group) (*Node, uint64) {
	n, key := g.n, g.recs[0].kv.Key
	w.t.Advance(2 * w.t.CostDRAM())
	v, ok := n.tryLock()
	if ok && !w.tree.index.Owns(w.t, n, key) {
		n.unlock(v)
		ok = false
	}
	if !ok {
		n, v = w.lockOwner(key)
	}
	return n, v
}

// refill puts recs, one replayed group, into the slots of n, which the
// caller holds locked, through the foreground's slot machine
// (placeSlots, fillSlots) with epoch e, and reports whether they fit; if
// not, it writes nothing. Either way it returns the group's KVs, in
// worker scratch. It draws no tick and appends no record: the records
// are in the log already. A var-KV key's fingerprint comes from the
// bytes Rebuild.check read, not from its blob.
func (w *Worker) refill(n *Node, recs []record, e uint32) ([]KV, bool) {
	kvs := w.batchKVs[:0]
	var keys [][]byte
	for _, p := range recs {
		kvs = append(kvs, p.kv)
		if w.tree.opts.VarKV {
			keys = append(keys, p.key)
		}
	}
	w.batchKVs = kvs
	r := groupRun{n: n, end: len(kvs)}
	if !w.placeSlots(&r, kvs, keys) {
		return kvs, false
	}
	w.fillSlots(&r, kvs, keys, e)
	return kvs, true
}

// routed is an Open after phase 3: the rebuilt tree, the groups of log
// records to replay into it in chain order, and what replay needs of
// the image, among it the log chunks the chunk directory names and the
// slots it names them in.
type routed struct {
	tr     *Tree
	st     *RecoveryStats
	rb     *Rebuild
	sb     superblock
	chunks []pmem.Addr
	slots  []int
	groups []group
}

// route runs phases 1 to 3 of OpenIndex.
func route(pool *pmem.Pool, opts Options, threads int, dir Directory) (*routed, error) {
	opts, alloc, err := setup(pool, opts)
	if err != nil {
		return nil, err
	}
	home := opts.HomeSocket
	// t0 is recovery's own: it dies scoped at the end of Open.
	t0 := pool.NewThread(home)
	t0.PushScope(pmem.ScopeRecovery)

	sb, err := readSuperblock(pool, t0, pmem.MakeAddr(home, alloc.BaseOffset()+sbOffset))
	if err != nil {
		return nil, err
	}
	if idx, cnt := sbArena(sb.flags); idx != opts.ArenaIndex || cnt != opts.ArenaCount {
		return nil, fmt.Errorf("core: tree was created as arena %d of %d, opened as %d of %d",
			idx, cnt, opts.ArenaIndex, opts.ArenaCount)
	}
	if other := sb.flags&sbIndex != 0; other != (dir != nil) {
		return nil, fmt.Errorf("core: image and opener disagree on the directory (image is another index's: %v)", other)
	}
	chunkBytes := sb.chunkBytes

	opts.ChunkBytes = chunkBytes
	opts.VarKV = sb.flags&1 != 0
	opts.DirSlots = sb.dirSlots
	if nb, ok := sbNbatch(sb.flags); ok {
		opts.Nbatch = nb
	}
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

	chunks, slots, err := sb.chunks(pool, t0)
	if err != nil {
		return nil, err
	}
	if rb.carves, err = sb.carves(pool, t0); err != nil {
		return nil, err
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
	// of both, and check the records they scanned (Rebuild.check).
	// Nothing writes a stamp before the records are routed against the
	// stamps the link pass reads from the table.
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
	// chunksOn[s] are socket s's chunks, idxOn[s] their places in chunks.
	chunksOn, idxOn := make([][]pmem.Addr, pool.Sockets()), make([][]int32, pool.Sockets())
	for i, c := range chunks {
		chunksOn[c.Socket()] = append(chunksOn[c.Socket()], c)
		idxOn[c.Socket()] = append(idxOn[c.Socket()], int32(i))
	}
	scans := make([]scanned, threads)
	err = pmem.Parallel(threads, func(i int) error {
		t := phase[i]
		var ents []wal.Entry
		var from []int32 // the chunk each of ents is in
		for _, sh := range shares(seats, pool.Sockets(), i) {
			for j := sh.k; j < len(carvesOn[sh.s]); j += sh.n {
				rb.discover(t, carvesOn[sh.s][j])
			}
			part, in := wal.ReadEntryPart(t, chunksOn[sh.s], chunkBytes, sh.k, sh.n)
			ents = append(ents, part...)
			for _, k := range in {
				from = append(from, idxOn[sh.s][k])
			}
		}
		scans[i] = rb.check(t, ents, from)
		return nil
	})
	if err != nil {
		return nil, err
	}
	st.DiscoverEndNS = endClock(phase)

	// Phase 2, on t0: the directory links its nodes by following its
	// chains over the table (a DRAM pass; its only write, an unlink,
	// touches the predecessor's meta word), and the threads' checks fold
	// in, with a sample of their records whose quantiles split the key
	// space into one range per thread.
	t0.SyncClock(st.DiscoverEndNS)
	if _, err := tr.buildIndex(t0, sb.root, rb); err != nil {
		return nil, err
	}
	rb.found = nil
	for n := tr.head; n != nil; n = n.next.Load() {
		st.Leaves++
	}
	var sample, splitters []record
	for _, sc := range scans {
		st.EntriesSeen += len(sc.recs) + sc.dropped
		st.EntriesDropped += sc.dropped
		rb.maxTick = max(rb.maxTick, sc.maxTick)
		for s, end := range sc.maxEnd {
			rb.maxEnd[s] = max(rb.maxEnd[s], end)
		}
		for k, m := 0, min(len(sc.recs), splitSample/threads); threads > 1 && k < m; k++ {
			sample = append(sample, sc.recs[k*len(sc.recs)/m])
		}
	}
	slices.SortFunc(sample, func(a, b record) int { return tr.order(t0, &a, &b) })
	chargeSort(t0, len(sample))
	for i := 1; i < threads && len(sample) > 0; i++ {
		splitters = append(splitters, sample[i*len(sample)/threads])
	}
	st.LinkEndNS = t0.Now()
	// Resume the tick domain above the image before the replay workers
	// start stamping: the rebuilt nodes' floors start at zero, so every
	// tick from here on, on any socket, must outrank every pre-crash one.
	tr.clock.AdvanceTo(rb.maxTick)

	// Phase 3, a sort-merge on the phase-1 threads: each scatters its
	// records into the ranges (a DRAM write each); then each sorts one
	// range by key, newest first, keeps each key's newest record (equal
	// keys share a range, so this dedups the whole log), and walks the
	// node chain beside the sorted records from one Find of the first
	// (the chain runs in Compare order, Directory; owned). It gates each
	// record by its line's pre-crash stamp as the link pass read it (a
	// DRAM lookup); a survivor joins its node's group.
	parts := make([][][]record, threads)
	syncClocks(phase, st.LinkEndNS)
	err = pmem.Parallel(threads, func(i int) error {
		t, recs := phase[i], scans[i].recs
		to, per := make([]int32, len(recs)), make([]int, threads)
		for k := range recs {
			to[k] = int32(sort.Search(len(splitters), func(j int) bool { return tr.order(t, &recs[k], &splitters[j]) < 0 }))
			per[to[k]]++
		}
		parts[i] = make([][]record, threads)
		for j, n := range per {
			parts[i][j] = make([]record, 0, n)
		}
		for k, r := range recs {
			parts[i][to[k]] = append(parts[i][to[k]], r)
		}
		t.Advance(int64(len(recs)) * t.CostDRAM())
		scans[i].recs = nil
		return nil
	})
	if err != nil {
		return nil, err
	}
	syncClocks(phase, endClock(phase))
	routes, stale := make([][]group, threads), make([]int, threads)
	err = pmem.Parallel(threads, func(i int) error {
		t, size := phase[i], 0
		for _, p := range parts {
			size += len(p[i])
		}
		recs := make([]record, 0, size)
		for _, p := range parts {
			recs = append(recs, p[i]...)
		}
		slices.SortFunc(recs, func(a, b record) int {
			if c := tr.order(t, &a, &b); c != 0 {
				return c
			}
			return cmp.Compare(b.ts, a.ts)
		})
		chargeSort(t, len(recs))
		recs = slices.CompactFunc(recs, func(a, b record) bool { return tr.order(t, &a, &b) == 0 })
		var n *Node
		var hi []byte
		for _, p := range recs {
			if n == nil {
				n = tr.index.Find(t, p.kv.Key)
				hi = tr.bound(t, n)
			}
			for !tr.owned(t, n, &p, hi) {
				t.Advance(t.CostDRAM())
				if n = n.next.Load(); n == nil {
					return corruptf("node chain", pmem.NilAddr, "not in key order")
				}
				hi = tr.bound(t, n)
			}
			leafTS := rb.stamps[n.leaf]
			t.Advance(t.CostDRAM())
			if p.ts > leafTS {
				routes[i] = join(routes[i], n, p)
			} else {
				stale[i]++
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	st.RouteEndNS = endClock(phase)
	// The ranges' groups, in range order, are the nodes' groups in chain
	// order; a node whose keys straddle two ranges gets one group, joined
	// here. Replaying a node's records as one batch is what makes
	// recovery restartable: the flush that stamps a line above every
	// pre-crash tick carries all of that node's records, so a crash
	// inside replay never leaves a stamped line with records still
	// waiting in the log, which the next recovery would gate out as
	// stale.
	var groups []group
	for i, gs := range routes {
		st.EntriesStale += stale[i]
		for _, g := range gs {
			groups = join(groups, g.n, g.recs...)
			st.EntriesReplayed += len(g.recs)
		}
	}
	return &routed{tr, st, rb, sb, chunks, slots, groups}, nil
}

// owned is Owns for the route walk, which reaches n by Find or from its
// predecessor, so p's key is at least n's low key. In var-KV mode (the
// tree's directory) it compares p's DRAM key copy with hi, the bytes of
// the low key of n's successor (bound), instead of reading p's key blob
// and both low keys' for every record.
func (tr *Tree) owned(t *pmem.Thread, n *Node, p *record, hi []byte) bool {
	if !tr.opts.VarKV {
		return tr.index.Owns(t, n, p.kv.Key)
	}
	return n.next.Load() == nil || bytes.Compare(p.key, hi) < 0
}

// bound reads, in var-KV mode, the bytes of the low key of n's
// successor for owned: once per step of the route walk.
func (tr *Tree) bound(t *pmem.Thread, n *Node) []byte {
	if nx := n.next.Load(); tr.opts.VarKV && nx != nil {
		return readBlob(t, nx.lowKey)
	}
	return nil
}

// splitSample is how many records recovery samples in all, evenly from
// each phase thread's scan, to split the key space into one range per
// thread: two ranges then differ by a few percent, and at 48 threads
// each range still rests on about 85 samples.
const splitSample = 4096

// group is one node's surviving records, which replay applies as one
// batch.
type group struct {
	n    *Node
	recs []record
}

// join adds recs to gs as n's: to the last group if it is n's, else as
// a new one.
func join(gs []group, n *Node, recs ...record) []group {
	if k := len(gs) - 1; k >= 0 && gs[k].n == n {
		gs[k].recs = append(gs[k].recs, recs...)
		return gs
	}
	return append(gs, group{n, recs})
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
	t := pool.NewThread(0) // dies scoped at return
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
	nbatch, _ := sbNbatch(s.flags)
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
	case nbatch > maxNbatch:
		return s, corruptf("superblock", pmem.NilAddr, "Nbatch %d invalid", nbatch)
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

// chunks reads the chunk directory s names on t, and the slot each
// chunk is in, and checks every chunk address in it: on the device for
// a whole chunk, line-aligned, and in one slot only (recovery releases a
// chunk by its slot).
func (s superblock) chunks(pool *pmem.Pool, t *pmem.Thread) ([]pmem.Addr, []int, error) {
	chunks, slots := readChunkDir(t, s.dirAddr, s.dirSlots)
	seen := make(map[pmem.Addr]bool, len(chunks))
	for _, c := range chunks {
		if !pool.ValidRange(c, int64(s.chunkBytes)) || c.Offset()%pmem.XPLineSize != 0 {
			return nil, nil, corruptf("chunk directory", c, "chunk address invalid")
		}
		if seen[c] {
			return nil, nil, corruptf("chunk directory", c, "chunk registered twice")
		}
		seen[c] = true
	}
	return chunks, slots, nil
}
