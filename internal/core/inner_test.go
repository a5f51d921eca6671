package core

import (
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"cclbtree/internal/pmem"
)

func fixedCmp(_ *pmem.Thread, a, b uint64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// testSlab serves the buffer nodes unit tests fabricate (the package's
// tests run one at a time).
var testSlab nodeSlab

func innerThread() *pmem.Thread {
	return pmem.NewPool(pmem.Config{Sockets: 1, DeviceBytes: 1 << 20, StrictPersist: true}).NewThread(0)
}

func TestInnerTreePutFindLE(t *testing.T) {
	tr := newInnerTree(fixedCmp)
	th := innerThread()
	nodes := map[uint64]*bufferNode{}
	for _, k := range []uint64{0, 100, 200, 300} {
		n := testSlab.newNode(pmem.MakeAddr(0, 4096+k), k, 2)
		nodes[k] = n
		tr.put(th, k, n)
	}
	cases := map[uint64]uint64{0: 0, 50: 0, 100: 100, 150: 100, 299: 200, 300: 300, 1 << 40: 300}
	for q, want := range cases {
		got := tr.findLE(th, q)
		if got != nodes[want] {
			t.Fatalf("findLE(%d) routed to %v, want lowKey %d", q, got, want)
		}
	}
	if tr.entries() != 4 {
		t.Fatalf("entries = %d", tr.entries())
	}
}

func TestInnerTreeRemove(t *testing.T) {
	tr := newInnerTree(fixedCmp)
	th := innerThread()
	for k := uint64(0); k < 500; k += 10 {
		tr.put(th, k, testSlab.newNode(pmem.MakeAddr(0, 4096+k*256), k, 2))
	}
	if !tr.remove(th, 250) {
		t.Fatal("remove failed")
	}
	if tr.remove(th, 250) {
		t.Fatal("double remove succeeded")
	}
	// Keys routed at 250..259 now fall to 240.
	got := tr.findLE(th, 255)
	if got == nil || got.lowKey != 240 {
		t.Fatalf("findLE(255) after remove: %+v", got)
	}
}

func TestInnerTreeStaleSeparatorRouting(t *testing.T) {
	// The regression behind the first recovery bug: removing an entry
	// whose key is also an ancestor separator must still route keys
	// below the removed entry to the true predecessor, even across
	// inner-leaf boundaries.
	tr := newInnerTree(fixedCmp)
	th := innerThread()
	const n = 2000
	for k := uint64(1); k <= n; k++ {
		tr.put(th, k*10, testSlab.newNode(pmem.MakeAddr(0, 4096+k*256), k*10, 2))
	}
	rng := rand.New(rand.NewSource(4))
	removed := map[uint64]bool{}
	for i := 0; i < n/2; i++ {
		k := (uint64(rng.Intn(n-1)) + 2) * 10 // keep the smallest entry
		if !removed[k] {
			tr.remove(th, k)
			removed[k] = true
		}
	}
	var live []uint64
	for k := uint64(1); k <= n; k++ {
		if !removed[k*10] {
			live = append(live, k*10)
		}
	}
	for trial := 0; trial < 3000; trial++ {
		q := uint64(rng.Intn(n*10)) + 10
		i := sort.Search(len(live), func(i int) bool { return live[i] > q })
		want := live[i-1]
		got := tr.findLE(th, q)
		if got == nil || got.lowKey != want {
			t.Fatalf("findLE(%d) = %v, want lowKey %d", q, got, want)
		}
	}
}

func TestChunkDirRegisterUnregister(t *testing.T) {
	pool := pmem.NewPool(pmem.Config{Sockets: 1, DeviceBytes: 4 << 20, StrictPersist: true})
	base := pmem.MakeAddr(0, 8192)
	d := newChunkDir(pool.NewThread(0), base, 16, 0, 0)
	d.clearAll()
	c1 := pmem.MakeAddr(0, 1<<20)
	c2 := pmem.MakeAddr(0, 2<<20)
	d.register(c1)
	d.register(c2)
	got, _ := readChunkDir(pool.NewThread(0), base, 16)
	if len(got) != 2 {
		t.Fatalf("dir holds %d chunks", len(got))
	}
	d.unregister(c1)
	got, _ = readChunkDir(pool.NewThread(0), base, 16)
	if len(got) != 1 || got[0] != c2 {
		t.Fatalf("after unregister: %v", got)
	}
	// Unregistering twice is harmless.
	d.unregister(c1)
	// Slots are recycled.
	for i := 0; i < 15; i++ {
		d.register(pmem.MakeAddr(0, uint64(3+i)<<20))
	}
	if got, _ := readChunkDir(pool.NewThread(0), base, 16); len(got) != 16 {
		t.Fatalf("slot recycling broken: %d", len(got))
	}
}

func TestChunkDirSurvivesCrash(t *testing.T) {
	pool := pmem.NewPool(pmem.Config{Sockets: 1, DeviceBytes: 4 << 20, StrictPersist: true})
	base := pmem.MakeAddr(0, 8192)
	d := newChunkDir(pool.NewThread(0), base, 8, 0, 0)
	d.clearAll()
	c := pmem.MakeAddr(0, 1<<20)
	d.register(c)
	pool.Crash()
	got, _ := readChunkDir(pool.NewThread(0), base, 8)
	if len(got) != 1 || got[0] != c {
		t.Fatalf("registration lost in crash: %v", got)
	}
}

func TestBlobRoundtrip(t *testing.T) {
	pool := pmem.NewPool(pmem.Config{Sockets: 1, DeviceBytes: 8 << 20, StrictPersist: true})
	th := pool.NewThread(0)
	tr, err := New(pool, Options{VarKV: true, ChunkBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	w := tr.NewWorker(0)
	for _, s := range []string{"", "a", "12345678", "a longer payload spanning words"} {
		word, err := w.blobs.write(w.t, []byte(s))
		if err != nil {
			t.Fatal(err)
		}
		if !IsBlobWord(word) {
			t.Fatal("blob word untagged")
		}
		got := readBlob(th, word)
		if string(got) != s {
			t.Fatalf("blob %q roundtripped as %q", s, got)
		}
	}
}

func TestCompareVarOrdering(t *testing.T) {
	pool := pmem.NewPool(pmem.Config{Sockets: 1, DeviceBytes: 8 << 20, StrictPersist: true})
	tr, err := New(pool, Options{VarKV: true, ChunkBytes: 16 << 10})
	if err != nil {
		t.Fatal(err)
	}
	w := tr.NewWorker(0)
	mk := func(s string) uint64 {
		word, err := w.blobs.write(w.t, []byte(s))
		if err != nil {
			t.Fatal(err)
		}
		return word
	}
	a, b, ab := mk("abc"), mk("abd"), mk("ab")
	th := w.t
	if tr.compareVar(th, a, b) >= 0 {
		t.Fatal("abc < abd violated")
	}
	if tr.compareVar(th, ab, a) >= 0 {
		t.Fatal("prefix ordering violated")
	}
	if tr.compareVar(th, a, mk("abc")) != 0 {
		t.Fatal("equal content in distinct blobs must compare equal")
	}
	if tr.compareVar(th, 0, a) >= 0 || tr.compareVar(th, a, 0) <= 0 {
		t.Fatal("0 sentinel must sort lowest")
	}
	if tr.compareVar(th, 0, 0) != 0 {
		t.Fatal("sentinel self-compare")
	}
}

func TestDecodeValueWord(t *testing.T) {
	pool := pmem.NewPool(pmem.Config{Sockets: 1, DeviceBytes: 8 << 20, StrictPersist: true})
	th := pool.NewThread(0)
	// Inline word decodes little-endian.
	got := decodeValueWord(th, 0x0102030405060708)
	if got[0] != 0x08 || got[7] != 0x01 {
		t.Fatalf("inline decode: %v", got)
	}
}

// innerChildren returns n's children (nil at the leaf level) and its key
// count; the one place the shape walker knows the node representation.
func innerChildren(n *innerNode) (kids []*innerNode, cnt int) {
	cnt = int(n.n.Load())
	for i := 0; !n.leaf() && i <= cnt; i++ {
		kids = append(kids, n.kids[i].Load())
	}
	return kids, cnt
}

// innerShape returns the number of nodes at each level, root first,
// and Σ count² over the leaf-level nodes — a fingerprint of how the
// split rule distributed the entries.
func innerShape(tr *innerTree) (levels []int, fill int) {
	for level := []*innerNode{tr.root.Load()}; len(level) > 0; {
		levels = append(levels, len(level))
		var next []*innerNode
		fill = 0
		for _, n := range level {
			kids, cnt := innerChildren(n)
			next = append(next, kids...)
			fill += cnt * cnt
		}
		level = next
	}
	return levels, fill
}

// TestInnerTreeShapeGolden pins the directory's shape — height, nodes
// per level, and the summed findLE descent depth (backtracking over
// stale separators and emptied leaf-level nodes included) over a fixed
// probe set — through a seeded put/remove/re-put sequence. The numbers
// were recorded from the copy-on-write tree the in-place one replaced:
// same fanout, same split point, same no-rebalance remove, so every
// modeled DRAM nanosecond of routing is unchanged.
func TestInnerTreeShapeGolden(t *testing.T) {
	tr := newInnerTree(fixedCmp)
	th := innerThread()
	rng := rand.New(rand.NewSource(17))
	v := testSlab.newNode(pmem.MakeAddr(0, 4096), 1, 2)
	keys := make([]uint64, 100_000)
	for i := range keys {
		keys[i] = rng.Uint64()>>2 | 1
		tr.put(th, keys[i], v)
	}
	// Remove 10 k scattered keys and a 10 k run contiguous in key order
	// (which empties whole leaf-level nodes); probe every other removed
	// key, so descents land on vanished routes.
	rng.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	rest := append([]uint64(nil), keys[10_000:]...)
	sort.Slice(rest, func(i, j int) bool { return rest[i] < rest[j] })
	removed := append(append([]uint64(nil), keys[:10_000]...), rest[30_000:40_000]...)
	depthSum := func() int64 {
		start := th.Now()
		for i := 0; i < len(removed); i += 2 {
			tr.findLE(th, removed[i])
		}
		return (th.Now() - start) / (8 * th.CostDRAM())
	}
	check := func(phase string, wantLevels []int, wantFill int, wantDepth int64) {
		t.Helper()
		if levels, fill := innerShape(tr); !reflect.DeepEqual(levels, wantLevels) || fill != wantFill {
			t.Errorf("%s: nodes per level = %v fill %d, want %v fill %d", phase, levels, fill, wantLevels, wantFill)
		}
		if got := depthSum(); got != wantDepth {
			t.Errorf("%s: findLE depth sum = %d, want %d", phase, got, wantDepth)
		}
	}
	check("after put", []int{1, 9, 206, 4468}, 2333974, 40000)
	for _, k := range removed {
		if !tr.remove(th, k) {
			t.Fatalf("remove(%d) missed", k)
		}
	}
	check("after remove", []int{1, 9, 206, 4468}, 1685836, 1470594)
	// Re-put the scattered keys, and fresh keys across the emptied run:
	// splits under stale separators.
	lo, hi := removed[10_000], removed[len(removed)-1]
	for i := 9_999; i >= 0; i-- {
		tr.put(th, removed[i], v)
		tr.put(th, lo+rng.Uint64()%(hi-lo)|1, v)
	}
	check("after re-put", []int{1, 9, 206, 4530}, 2311332, 40437)
	if got := tr.entries(); got != len(keys) {
		t.Fatalf("entries = %d, want %d", got, len(keys))
	}
}

// TestInnerTreeConcurrentFindLE races four lock-free readers against
// one writer that registers permanent routes (multiples of 10, in
// scattered order) interleaved with volatile ones (…5) it removes again
// 32 puts later. The writer advances a watermark after each permanent
// put; a reader that snapshots the watermark before its findLE must be
// routed at or above every permanent route published by then — a route
// is never missed — and never above the probe key.
func TestInnerTreeConcurrentFindLE(t *testing.T) {
	tr := newInnerTree(fixedCmp)
	const perm = 20_000
	order := rand.New(rand.NewSource(9)).Perm(perm)
	var slab nodeSlab
	node := func(k uint64) *bufferNode { return slab.newNode(pmem.MakeAddr(0, 4096), k, 2) }
	var published atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			th := innerThread()
			rng := rand.New(rand.NewSource(int64(r)))
			for probes := 0; ; probes++ {
				w := published.Load()
				if w == 0 {
					runtime.Gosched()
					continue
				}
				if w == perm && probes > 50_000 {
					return
				}
				low := uint64(order[rng.Int63n(w)]+1) * 10
				q := low + uint64(rng.Intn(10))
				got := tr.findLE(th, q)
				if got == nil {
					t.Errorf("findLE(%d) routed nowhere with route %d published", q, low)
					return
				}
				if got.lowKey > q || got.lowKey < low {
					t.Errorf("findLE(%d) routed to %d with route %d published", q, got.lowKey, low)
					return
				}
			}
		}(r)
	}
	th := innerThread()
	for i, o := range order {
		k := uint64(o+1) * 10
		tr.put(th, k, node(k))
		published.Store(int64(i + 1))
		tr.put(th, k+5, node(k+5))
		if i >= 32 {
			if old := uint64(order[i-32]+1)*10 + 5; !tr.remove(th, old) {
				t.Errorf("remove(%d) missed", old)
			}
		}
	}
	wg.Wait()
}

// FuzzInnerTree drives put/remove/findLE byte programs against a
// sorted-slice reference. Every program starts from the stale-separator
// tree of TestInnerTreeStaleSeparatorRouting (2000 ascending routes,
// half removed at random by seed); ops are 3 bytes — opcode, key — with
// opcode 3 removing a run of 64 consecutive routes, enough to empty
// whole leaf-level nodes.
func FuzzInnerTree(f *testing.F) {
	f.Add(int64(4), []byte{})
	f.Add(int64(4), []byte{3, 1, 0, 3, 1, 64, 2, 1, 90, 0, 1, 70, 2, 1, 71, 1, 1, 70, 2, 1, 71})
	f.Add(int64(1), []byte{3, 0, 0, 3, 0, 64, 3, 0, 128, 2, 0, 100, 2, 0, 0, 0, 0, 1, 2, 0, 1})
	f.Fuzz(func(t *testing.T, seed int64, prog []byte) {
		const n = 2000
		tr := newInnerTree(fixedCmp)
		th := innerThread()
		var slab nodeSlab
		var live []uint64 // the reference: routed keys, ascending
		find := func(k uint64) (int, bool) {
			i := sort.Search(len(live), func(i int) bool { return live[i] >= k })
			return i, i < len(live) && live[i] == k
		}
		put := func(k uint64) {
			tr.put(th, k, slab.newNode(pmem.MakeAddr(0, 4096), k, 2))
			if i, ok := find(k); !ok {
				live = append(live[:i], append([]uint64{k}, live[i:]...)...)
			}
		}
		remove := func(k uint64) {
			i, ok := find(k)
			if got := tr.remove(th, k); got != ok {
				t.Fatalf("remove(%d) = %v, reference says %v", k, got, ok)
			}
			if ok {
				live = append(live[:i], live[i+1:]...)
			}
		}
		check := func(q uint64) {
			want := uint64(0)
			if i, ok := find(q); ok {
				want = q
			} else if i > 0 {
				want = live[i-1]
			}
			got := tr.findLE(th, q)
			if want == 0 && got != nil || want != 0 && (got == nil || got.lowKey != want) {
				t.Fatalf("findLE(%d) = %v, want lowKey %d", q, got, want)
			}
		}
		for k := uint64(1); k <= n; k++ {
			put(k * 10)
		}
		rng := rand.New(rand.NewSource(seed))
		for i := 0; i < n/2; i++ {
			if k := uint64(rng.Intn(n)+1) * 10; rng.Intn(2) == 0 {
				remove(k)
			}
		}
		for ; len(prog) >= 3; prog = prog[3:] {
			k := (uint64(prog[1])<<8|uint64(prog[2]))%(n+64)*10 + 10
			switch prog[0] % 4 {
			case 0:
				put(k + uint64(prog[0]>>2)%10) // between the base routes too
			case 1:
				remove(k)
			case 2:
				check(k + uint64(prog[0]>>2)%10)
			case 3:
				for j := uint64(0); j < 64; j++ {
					remove(k + 10*j)
				}
			}
		}
		for q := uint64(1); q <= (n+130)*10; q += 7 {
			check(q)
		}
		if tr.entries() != len(live) {
			t.Fatalf("entries = %d, reference holds %d", tr.entries(), len(live))
		}
	})
}
