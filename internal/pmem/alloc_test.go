package pmem

import (
	"math/rand"
	"testing"
)

// The device model is the one layer every experiment, test and served
// request pays for on the host clock, so its hot path is held to zero
// allocations per access in steady state: dirty-line entries live by
// value in their shard's map, flush snapshots by value in the thread's
// recycled pending slice, and an XPBuffer fill reuses its victim's
// entry.

// allocPool is the pool the allocation guards run on: a working set
// (4 MB per socket) far beyond the XPBuffers (2 × 8 XPLines) so random
// accesses miss, crash tracking on under ADR so stores save pre-images,
// and strict mode on (its checks wrap the same code paths).
func allocPool(mode Mode, cacheLines int) *Pool {
	return NewPool(Config{
		Mode:           mode,
		Sockets:        1,
		DIMMsPerSocket: 2,
		DeviceBytes:    4 << 20,
		XPBufferLines:  8,
		CacheLines:     cacheLines,
		StrictPersist:  true,
	})
}

// randomLines returns n cacheline-aligned addresses scattered over the
// device, so nearly every access lands on an XPLine that is not
// buffered.
func randomLines(p *Pool, n int) []Addr {
	rng := rand.New(rand.NewSource(7))
	lines := int(p.DeviceBytes() / CachelineSize)
	out := make([]Addr, n)
	for i := range out {
		out[i] = MakeAddr(0, uint64(rng.Intn(lines))*CachelineSize)
	}
	return out
}

// mustNotAllocate runs op over addrs once to warm every recycled
// structure (map slots, the pending slice, the XPBuffer slabs), then
// asserts a second and third pass allocate nothing.
func mustNotAllocate(t *testing.T, what string, addrs []Addr, op func(a Addr)) {
	t.Helper()
	for _, a := range addrs {
		op(a)
	}
	i := 0
	avg := testing.AllocsPerRun(2*len(addrs), func() {
		op(addrs[i%len(addrs)])
		i++
	})
	if avg != 0 {
		t.Fatalf("%s allocates %.2f objects/op, want 0", what, avg)
	}
}

func TestHotPathZeroAllocADR(t *testing.T) {
	p := allocPool(ADR, 0)
	th := p.NewThread(0)
	addrs := randomLines(p, 4096)
	var v uint64

	mustNotAllocate(t, "random 16 B Store+Persist", addrs, func(a Addr) {
		v++
		th.Store(a, v)
		th.Store(a.Add(8), v)
		th.Persist(a, 16)
	})
	if s := p.Stats(); s.XPBufWriteMisses == 0 {
		t.Fatal("workload never missed the XPBuffer: the fill path was not exercised")
	}

	p.ResetStats()
	mustNotAllocate(t, "random Load miss", addrs, func(a Addr) { v += th.Load(a) })
	if s := p.Stats(); s.XPBufReadMisses == 0 {
		t.Fatal("loads never missed the XPBuffer: the fill path was not exercised")
	}

	var xpline [XPLineSize / WordSize]uint64
	mustNotAllocate(t, "WriteRange+Flush+Fence of one XPLine", addrs, func(a Addr) {
		v++
		xpline[0], xpline[len(xpline)-1] = v, v
		a = MakeAddr(0, a.Offset()&^(XPLineSize-1))
		th.WriteRange(a, xpline[:])
		th.Flush(a, XPLineSize)
		th.Fence()
	})

	// Everything above was persisted: a crash must keep the last pass.
	p.Crash()
	if got := p.NewThread(0).Load(MakeAddr(0, addrs[len(addrs)-1].Offset()&^(XPLineSize-1))); got == 0 {
		t.Fatal("persisted XPLine lost at crash")
	}
}

// TestHotPathZeroAllocEADROverflow covers the path ADR programs rarely
// take: under eADR nothing is ever flushed, so the dirty set runs at
// capacity and every store of a new line evicts another (evictOne).
func TestHotPathZeroAllocEADROverflow(t *testing.T) {
	p := allocPool(EADR, 256)
	th := p.NewThread(0)
	addrs := randomLines(p, 8192)
	var v uint64

	mustNotAllocate(t, "eADR Store+Persist with the cache overflowing", addrs, func(a Addr) {
		v++
		th.Store(a, v)
		th.Store(a.Add(8), v)
		th.Persist(a, 16)
	})
	if s := p.Stats(); s.CacheEvictions == 0 {
		t.Fatal("cache never overflowed: evictOne was not exercised")
	}
	var xpline [XPLineSize / WordSize]uint64
	mustNotAllocate(t, "eADR WriteRange+Flush+Fence with the cache overflowing", addrs, func(a Addr) {
		v++
		xpline[0] = v
		a = MakeAddr(0, a.Offset()&^(XPLineSize-1))
		th.WriteRange(a, xpline[:])
		th.Flush(a, XPLineSize)
		th.Fence()
	})
}

// TestReusedEntryKeepsOwnPreImage: a dirty-line entry's storage is
// reused once its line is committed. The next line to occupy it must
// roll back to ITS pre-store content at a crash, never to the previous
// occupant's — directly, and through a torn write-back, which edits
// the pre-image in place.
func TestReusedEntryKeepsOwnPreImage(t *testing.T) {
	// Lines A and B share a shard (numShards apart), so B's entry takes
	// the storage A's just vacated.
	lineA, lineB := uint64(64), uint64(64+numShards)
	a, b := MakeAddr(0, lineA*CachelineSize), MakeAddr(0, lineB*CachelineSize)

	setup := func(t *testing.T) (*Pool, *Thread) {
		p := allocPool(ADR, 0)
		th := p.NewThread(0)
		if p.devs[0].shardFor(lineA) != p.devs[0].shardFor(lineB) {
			t.Fatal("test lines fell in different shards")
		}
		// Persistent images: A = 100+i, B = 200+i.
		for i := int64(0); i < wordsPerLine; i++ {
			th.Store(a.Add(8*i), uint64(100+i))
			th.Store(b.Add(8*i), uint64(200+i))
		}
		th.Persist(a, CachelineSize)
		th.Persist(b, CachelineSize)
		// Dirty A over its image and commit it: its entry is released.
		for i := int64(0); i < wordsPerLine; i++ {
			th.Store(a.Add(8*i), uint64(110+i))
		}
		th.Persist(a, CachelineSize)
		// Dirty B, reusing it.
		for i := int64(0); i < wordsPerLine; i++ {
			//persistlint:ignore PL001 deliberately unpersisted: the crash below must roll it back
			th.Store(b.Add(8*i), uint64(210+i))
		}
		return p, th
	}
	check := func(t *testing.T, p *Pool, tornPrefix int64) {
		t.Helper()
		th := p.NewThread(0)
		for i := int64(0); i < wordsPerLine; i++ {
			if got, want := th.Load(a.Add(8*i)), uint64(110+i); got != want {
				t.Fatalf("line A word %d = %d after crash, want its committed %d", i, got, want)
			}
			want := uint64(200 + i)
			if i < tornPrefix {
				want = uint64(210 + i)
			}
			if got := th.Load(b.Add(8 * i)); got != want {
				t.Fatalf("line B word %d = %d after crash, want %d (B's own pre-store content, torn prefix %d)",
					i, got, want, tornPrefix)
			}
		}
	}

	t.Run("crash", func(t *testing.T) {
		p, _ := setup(t)
		p.Crash()
		check(t, p, 0)
	})
	t.Run("torn", func(t *testing.T) {
		p, th := setup(t)
		//persistlint:ignore PL002 deliberately unfenced: the tear below models the in-flight write-back
		th.Flush(b, CachelineSize)
		const prefix = 3
		if torn := th.TearPendingPrefix(prefix); torn != 1 {
			t.Fatalf("TearPendingPrefix tore %d lines, want 1", torn)
		}
		p.Crash()
		check(t, p, prefix)
	})
}
