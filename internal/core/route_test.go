package core

import (
	"bytes"
	"fmt"
	"maps"
	"math/rand"
	"strconv"
	"testing"

	"cclbtree/internal/pmem"
	"cclbtree/internal/pmleaf"
	"cclbtree/internal/wal"
)

// routeImage is a seeded crashed image for the route tests, and the
// contents its acknowledged writes left, by logical key, outside the
// range of a leaf the image empties (see fixedImage).
type routeImage struct {
	pool *pmem.Pool
	want map[string][]byte
	skip func(lk string) bool
}

// fixedImage builds a fixed-key tree that splits and merges, with
// several versions of many keys in the log, and crashes it. One leaf
// left with nothing but deleted keys' fences gets an empty bitmap
// before the crash, so the link pass reclaims it and routing sends its
// range to the predecessor: a delete that only that leaf held is lost
// there, so its range is left out of the contents check. GC is off, so
// the same seed gives the same image.
func fixedImage(t *testing.T, seed int64) routeImage {
	t.Helper()
	tr, w := newTestTree(t, Options{GC: GCOff}, nil)
	rng := rand.New(rand.NewSource(seed))
	img := routeImage{pool: tr.Pool(), want: map[string][]byte{}}
	put := func(k uint64) {
		v := rng.Uint64()%MaxValue + 1
		if err := w.Upsert(k, v); err != nil {
			t.Fatal(err)
		}
		img.want[fmt.Sprint(k)] = []byte(fmt.Sprint(v))
	}
	del := func(k uint64) {
		if err := w.Delete(k); err != nil {
			t.Fatal(err)
		}
		delete(img.want, fmt.Sprint(k))
	}
	for _, k := range rng.Perm(4000) {
		put(uint64(k + 1))
	}
	for range 4000 {
		put(uint64(rng.Intn(4000) + 1))
	}
	for k := uint64(1001); k <= 1800; k++ { // leaves of fences only
		del(k)
	}
	for k := uint64(2001); k <= 4000; k++ { // thins leaves until they merge
		if rng.Intn(4) > 0 {
			del(k)
		}
	}
	if c := tr.Counters(); c.Splits == 0 || c.Merges == 0 {
		t.Fatalf("image has %d splits and %d merges; want both", c.Splits, c.Merges)
	}
	tr.Freeze()
	th := img.pool.NewThread(0)
	for n := tr.head.next.Load(); n != nil; n = n.next.Load() {
		var li pmleaf.Image
		li.Read(th, n.leaf)
		fences := 0
		for i := range LeafSlots {
			if li.Valid(i) && li.Val(i) == Tombstone {
				fences++
			} else if li.Valid(i) {
				fences = -LeafSlots
			}
		}
		if fences <= 0 || n.next.Load() == nil {
			continue
		}
		_, next := pmleaf.UnpackMeta(li.Meta())
		th.Store(pmleaf.MetaAddr(n.leaf), pmleaf.PackMeta(0, next))
		th.Persist(n.leaf, pmem.WordSize)
		lo, hi := n.lowKey, n.next.Load().lowKey
		img.skip = func(lk string) bool {
			k, _ := strconv.ParseUint(lk, 10, 64)
			return k >= lo && k < hi
		}
		break
	}
	if img.skip == nil {
		t.Fatal("the image has no leaf of fences only")
	}
	img.pool.Crash()
	return img
}

// varImage builds a var-KV tree with updated and deleted keys and
// crashes it.
func varImage(t *testing.T, seed int64) routeImage {
	t.Helper()
	tr, w := newTestTree(t, Options{VarKV: true, GC: GCOff}, func(c *pmem.Config) { c.DeviceBytes = 64 << 20 })
	rng := rand.New(rand.NewSource(seed))
	img := routeImage{pool: tr.Pool(), want: map[string][]byte{}, skip: func(string) bool { return false }}
	for range 3000 {
		k, v := varKey(rng.Intn(1200)), varVal(rng.Int())
		if rng.Intn(8) == 0 {
			if err := deleteVar(w, k); err != nil {
				t.Fatal(err)
			}
			delete(img.want, string(k))
			continue
		}
		if err := putVar(w, k, v); err != nil {
			t.Fatal(err)
		}
		img.want[string(k)] = v
	}
	tr.Freeze()
	img.pool.Crash()
	return img
}

// TestRouteMatchesFind checks the sort-merge route against a reference
// that routes every record on its own: the newest record of each
// logical key in the log, sent to the node Directory.Find names and
// kept while it is newer than that node's line stamp. On each seeded
// image, at 1 to 4 threads, every survivor must land in the reference's
// node, the groups must run in chain order with one per node, the
// counts must match, and the replayed tree must hold the image's
// contents; on the fixed image the route's modeled cost is bounded too.
// (The hash table's image is internal/cclhash's
// TestRouteMatchesFindHash.)
func TestRouteMatchesFind(t *testing.T) {
	images := map[string]func(*testing.T, int64) routeImage{"fixed": fixedImage, "var": varImage}
	for name, build := range images {
		t.Run(name, func(t *testing.T) {
			var stats []RecoveryStats
			var first map[string][]byte
			for threads := 1; threads <= 4; threads++ {
				r, err := route(build(t, 7).pool, Options{}, threads, nil)
				if err != nil {
					t.Fatal(err)
				}
				checkRoute(t, r)
				img := build(t, 7)
				tr, rs, err := Open(img.pool, Options{}, threads)
				if err != nil {
					t.Fatal(err)
				}
				if counts(*rs) != counts(*r.st) {
					t.Fatalf("Open's stats %+v, the route's %+v", rs, r.st)
				}
				contents := checkContents(t, tr, img)
				if threads > 1 && !maps.EqualFunc(contents, first, bytes.Equal) {
					t.Fatalf("%d threads recovered other contents than 1", threads)
				}
				first = contents
				st := counts(*rs)
				stats = append(stats, st)
				if name == "fixed" && st.EmptyLeavesReclaimed == 0 {
					t.Fatal("the image reclaims no empty leaf at link")
				}
				// The route's cost stays below one inner-tree level (a
				// descent's charge per level) per candidate per thread,
				// so a per-record descent cannot come back.
				cands := int64(st.EntriesReplayed + st.EntriesStale)
				bound := cands * 8 * img.pool.NewThread(0).CostDRAM() / int64(threads)
				if cost := rs.RouteEndNS - rs.LinkEndNS; name == "fixed" && cost >= bound {
					t.Fatalf("%d threads: route took %d ns for %d candidates; bound %d ns", threads, cost, cands, bound)
				}
			}
			for i, st := range stats[1:] {
				if st != stats[0] {
					t.Fatalf("%d threads: %+v; 1 thread: %+v", i+2, st, stats[0])
				}
			}
		})
	}
}

// counts is st without its phase ends, which vary with the schedule
// at more than one thread.
func counts(st RecoveryStats) RecoveryStats {
	st.DiscoverEndNS, st.LinkEndNS, st.RouteEndNS, st.ReplayEndNS, st.VirtualNS = 0, 0, 0, 0, 0
	return st
}

// checkRoute compares r's groups with the per-record reference, which
// reads the log and the stamps itself.
func checkRoute(t *testing.T, r *routed) {
	t.Helper()
	tr, th := r.tr, r.tr.pool.NewThread(0)
	logical := func(k uint64) string {
		if tr.opts.VarKV {
			return string(readBlob(th, k))
		}
		return fmt.Sprint(k)
	}
	type version struct {
		kv KV
		ts uint64
	}
	newest := map[string]version{}
	dropped := 0
	for _, e := range wal.ReadEntryPart(th, r.chunks, r.sb.chunkBytes, 0, 1) {
		if _, err := r.rb.words(th, e.Key, e.Value, nil); err != nil {
			dropped++
			continue
		}
		if v, ok := newest[logical(e.Key)]; !ok || e.Timestamp > v.ts {
			newest[logical(e.Key)] = version{KV{e.Key, e.Value}, e.Timestamp}
		}
	}
	want := map[string]*Node{}
	for lk, v := range newest {
		if n := tr.index.Find(th, v.kv.Key); v.ts > r.rb.stamps[n.leaf] {
			want[lk] = n
		}
	}
	pos, i := map[*Node]int{}, 0
	for n := tr.head; n != nil; n = n.next.Load() {
		pos[n], i = i, i+1
	}
	got, last := 0, -1
	for _, g := range r.groups {
		if pos[g.n] <= last {
			t.Fatalf("group at chain position %d after one at %d", pos[g.n], last)
		}
		last = pos[g.n]
		for _, kv := range g.kvs {
			lk := logical(kv.Key)
			if n, ok := want[lk]; !ok || n != g.n || kv != newest[lk].kv {
				t.Fatalf("key %s: routed %v to chain position %d; reference: survivor %v, newest %v, position %d",
					lk, kv, pos[g.n], ok, newest[lk].kv, pos[n])
			}
			got++
		}
	}
	st := r.st
	if got != len(want) || st.EntriesReplayed != len(want) || st.EntriesStale != len(newest)-len(want) ||
		st.EntriesDropped != dropped {
		t.Fatalf("routed %d, stats replayed %d stale %d dropped %d; reference %d, %d, %d",
			got, st.EntriesReplayed, st.EntriesStale, st.EntriesDropped, len(want), len(newest)-len(want), dropped)
	}
	if len(want) == 0 || st.EntriesStale == 0 {
		t.Fatalf("the image has %d survivors and %d stale records; want both", len(want), st.EntriesStale)
	}
}

// checkContents scans the whole recovered tree and checks it against
// img's contents outside its skipped range; it returns what it scanned.
func checkContents(t *testing.T, tr *Tree, img routeImage) map[string][]byte {
	t.Helper()
	w := tr.NewWorker(0)
	got := map[string][]byte{}
	if tr.opts.VarKV {
		for _, kv := range w.ScanVar(nil, len(img.want)+1000) {
			got[string(kv.Key)] = kv.Value
		}
	} else {
		out := make([]KV, len(img.want)+1000)
		for _, kv := range out[:w.Scan(1, len(out), out)] {
			got[fmt.Sprint(kv.Key)] = []byte(fmt.Sprint(kv.Value))
		}
	}
	for k, v := range got {
		if _, ok := img.want[k]; !ok && !img.skip(k) {
			t.Fatalf("key %s = %q resurrected", k, v)
		}
	}
	for k, v := range img.want {
		if !img.skip(k) && !bytes.Equal(got[k], v) {
			t.Fatalf("key %s: recovered %q, want %q", k, got[k], v)
		}
	}
	return got
}
