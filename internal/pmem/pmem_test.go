package pmem

import (
	"bytes"
	"math/rand"
	"sync"
	"testing"
)

func testPool(t *testing.T, mut func(*Config)) *Pool {
	t.Helper()
	cfg := Config{
		Sockets:        2,
		DIMMsPerSocket: 2,
		DeviceBytes:    1 << 20,
		XPBufferLines:  8,
		CacheLines:     1 << 12,
	}
	if mut != nil {
		mut(&cfg)
	}
	return NewPool(cfg)
}

func TestAddrPacking(t *testing.T) {
	a := MakeAddr(1, 0x1234)
	if a.Socket() != 1 || a.Offset() != 0x1234 {
		t.Fatalf("roundtrip failed: socket=%d off=%#x", a.Socket(), a.Offset())
	}
	if a.Add(8).Offset() != 0x123c {
		t.Fatalf("Add failed: %#x", a.Add(8).Offset())
	}
	if !NilAddr.IsNil() || a.IsNil() {
		t.Fatal("IsNil wrong")
	}
	p := a.Pack48()
	if Unpack48(p) != a {
		t.Fatalf("Pack48 roundtrip: %v != %v", Unpack48(p), a)
	}
	// Pack48 must survive being embedded in a wider word.
	wide := p | 0x3fff<<48
	if Unpack48(wide) != a {
		t.Fatalf("Unpack48 must mask high bits")
	}
}

func TestPack48Overflow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for oversized offset")
		}
	}()
	MakeAddr(0, 1<<44).Pack48()
}

//persistlint:ignore PL001 volatile store/load roundtrip; durability is not under test
func TestStoreLoadRoundtrip(t *testing.T) {
	p := testPool(t, nil)
	th := p.NewThread(0)
	a := MakeAddr(0, 4096)
	th.Store(a, 0xdeadbeef)
	if got := th.Load(a); got != 0xdeadbeef {
		t.Fatalf("Load = %#x", got)
	}
	// Word on another socket.
	b := MakeAddr(1, 512)
	th.Store(b, 7)
	if got := th.Load(b); got != 7 {
		t.Fatalf("remote Load = %d", got)
	}
	if p.Stats().RemoteAccesses == 0 {
		t.Fatal("remote access not counted")
	}
}

//persistlint:ignore PL001 volatile range roundtrip; durability is not under test
func TestRangeRoundtrip(t *testing.T) {
	p := testPool(t, nil)
	th := p.NewThread(0)
	a := MakeAddr(0, 1024)
	src := make([]uint64, 32)
	for i := range src {
		src[i] = uint64(i * 3)
	}
	th.WriteRange(a, src)
	dst := make([]uint64, 32)
	th.ReadRange(a, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("word %d: got %d want %d", i, dst[i], src[i])
		}
	}
}

func TestCrashRollsBackUnflushedStores(t *testing.T) {
	p := testPool(t, nil)
	th := p.NewThread(0)
	a := MakeAddr(0, 2048)
	th.Store(a, 1)
	th.Persist(a, 8)
	//persistlint:ignore PL001 deliberately unflushed: the crash below must roll it back
	th.Store(a, 2) // never flushed
	p.Crash()
	th2 := p.NewThread(0)
	if got := th2.Load(a); got != 1 {
		t.Fatalf("after crash Load = %d, want flushed value 1", got)
	}
}

func TestCrashKeepsFlushedStores(t *testing.T) {
	p := testPool(t, nil)
	th := p.NewThread(0)
	for i := 0; i < 100; i++ {
		a := MakeAddr(0, uint64(64*i))
		th.Store(a, uint64(i))
		th.Persist(a, 8)
	}
	p.Crash()
	th2 := p.NewThread(0)
	for i := 0; i < 100; i++ {
		if got := th2.Load(MakeAddr(0, uint64(64*i))); got != uint64(i) {
			t.Fatalf("slot %d lost: %d", i, got)
		}
	}
}

func TestFlushWithoutFenceNotDurable(t *testing.T) {
	p := testPool(t, nil)
	th := p.NewThread(0)
	a := MakeAddr(0, 2048)
	th.Store(a, 1)
	th.Persist(a, 8)
	th.Store(a, 2)
	//persistlint:ignore PL002 deliberately unfenced: the crash below must discard the clwb snapshot
	th.Flush(a, 8) // no fence
	p.Crash()
	if got := p.NewThread(0).Load(a); got != 1 {
		t.Fatalf("unfenced flush persisted: %d", got)
	}
}

func TestStoreAfterFlushBeforeFence(t *testing.T) {
	// sfence persists the flush-time snapshot, not later stores.
	p := testPool(t, nil)
	th := p.NewThread(0)
	a := MakeAddr(0, 2048)
	th.Store(a, 1)
	th.Flush(a, 8)
	//persistlint:ignore PL001 deliberately unflushed: sfence must persist the flush-time snapshot only
	th.Store(a, 2) // after clwb, before sfence
	th.Fence()
	p.Crash()
	if got := p.NewThread(0).Load(a); got != 1 {
		t.Fatalf("persistent value = %d, want flush-time snapshot 1", got)
	}
}

func TestEADRStoresSurviveCrash(t *testing.T) {
	p := testPool(t, func(c *Config) { c.Mode = EADR })
	th := p.NewThread(0)
	a := MakeAddr(0, 2048)
	//persistlint:ignore PL001 the pool runs in eADR mode: stores are durable without flushing
	th.Store(a, 42) // no flush at all
	p.Crash()
	if got := p.NewThread(0).Load(a); got != 42 {
		t.Fatalf("eADR store lost: %d", got)
	}
}

func TestXPBufferWriteCombining(t *testing.T) {
	p := testPool(t, nil)
	th := p.NewThread(0)
	base := p.Stats()
	// Four cacheline flushes into the same XPLine: one miss, three hits.
	for i := 0; i < 4; i++ {
		a := MakeAddr(0, uint64(64*i))
		th.Store(a, uint64(i+1))
		th.Persist(a, 8)
	}
	s := p.Stats().Sub(base)
	if s.XPBufWriteBytes != 4*CachelineSize {
		t.Fatalf("XPBufWriteBytes = %d", s.XPBufWriteBytes)
	}
	if s.XPBufWriteMisses != 1 || s.XPBufWriteHits != 3 {
		t.Fatalf("miss/hit = %d/%d, want 1/3", s.XPBufWriteMisses, s.XPBufWriteHits)
	}
	if s.MediaWriteBytes != 0 {
		t.Fatalf("media write before eviction: %d", s.MediaWriteBytes)
	}
	p.DrainXPBuffers()
	s = p.Stats().Sub(base)
	if s.MediaWriteBytes != XPLineSize {
		t.Fatalf("after drain MediaWriteBytes = %d, want %d", s.MediaWriteBytes, XPLineSize)
	}
}

func TestXPBufferEvictionCountsMediaWrites(t *testing.T) {
	p := testPool(t, nil)
	th := p.NewThread(0)
	base := p.Stats()
	// Touch far more XPLines than one DIMM buffers (cap 8/DIMM, 2 DIMMs)
	// with poor locality: every flush misses, evictions write media.
	const n = 256
	for i := 0; i < n; i++ {
		a := MakeAddr(0, uint64(i*XPLineSize))
		th.Store(a, 1)
		th.Persist(a, 8)
	}
	s := p.Stats().Sub(base)
	if s.XPBufWriteMisses != n {
		t.Fatalf("misses = %d, want %d", s.XPBufWriteMisses, n)
	}
	wantEvicted := uint64(n-2*8) * XPLineSize // all but buffered lines
	if s.MediaWriteBytes != wantEvicted {
		t.Fatalf("MediaWriteBytes = %d, want %d", s.MediaWriteBytes, wantEvicted)
	}
}

func TestAmplificationMetrics(t *testing.T) {
	p := testPool(t, nil)
	th := p.NewThread(0)
	// One 16 B KV write that dirties one cacheline in a cold XPLine.
	th.Store(MakeAddr(0, 0), 1)
	th.Store(MakeAddr(0, 8), 2)
	th.Persist(MakeAddr(0, 0), 16)
	p.AddUserBytes(16)
	p.DrainXPBuffers()
	s := p.Stats()
	if got := s.CLIAmplification(); got != 4 { // 64/16
		t.Fatalf("CLI = %v, want 4", got)
	}
	if got := s.XBIAmplification(); got != 16 { // 256/16
		t.Fatalf("XBI = %v, want 16", got)
	}
}

// One XPLine written under ScopeWAL and one under ScopeLeafBuf are
// charged to exactly those scopes.
func TestMediaWriteTagAttribution(t *testing.T) {
	p := testPool(t, nil)
	th := p.NewThread(0)
	prev := th.PushScope(ScopeWAL)
	th.Store(MakeAddr(0, 0), 1)
	th.Persist(MakeAddr(0, 0), 8)
	th.PopScope(prev)
	prev = th.PushScope(ScopeLeafBuf)
	th.Store(MakeAddr(0, 4096), 1)
	th.Persist(MakeAddr(0, 4096), 8)
	th.PopScope(prev)
	p.DrainXPBuffers()
	s := p.Stats()
	if s.MediaWriteByScope[ScopeWAL] != XPLineSize {
		t.Fatalf("WAL bytes = %d", s.MediaWriteByScope[ScopeWAL])
	}
	if s.MediaWriteByScope[ScopeLeafBuf] != XPLineSize {
		t.Fatalf("leaf bytes = %d", s.MediaWriteByScope[ScopeLeafBuf])
	}
	if s.MediaWriteBytes != 2*XPLineSize {
		t.Fatalf("media bytes = %d, want two XPLines", s.MediaWriteBytes)
	}
}

func TestVirtualTimeAdvances(t *testing.T) {
	p := testPool(t, nil)
	th := p.NewThread(0)
	if th.Now() != 0 {
		t.Fatal("fresh thread clock not zero")
	}
	th.Store(MakeAddr(0, 0), 1)
	th.Persist(MakeAddr(0, 0), 8)
	if th.Now() <= 0 {
		t.Fatal("clock did not advance")
	}
	before := th.Now()
	th.Advance(1000)
	if th.Now() != before+1000 {
		t.Fatal("Advance wrong")
	}
}

func TestMediaBandwidthBoundsThroughput(t *testing.T) {
	// The §2.2 observation: with enough threads, time is governed by
	// XPLine flush count, not cacheline flush count. Many threads
	// doing XPLine misses saturate the DIMMs and pay backpressure
	// stalls; the same flush count landing in resident XPLines costs
	// only issue+fence time.
	const threads = 16
	const n = 2000
	runCase := func(miss bool) int64 {
		p := testPool(t, func(c *Config) { c.DeviceBytes = 16 << 20 })
		var wg sync.WaitGroup
		elapsed := make([]int64, threads)
		for w := 0; w < threads; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				th := p.NewThread(0)
				base := uint64(w) * uint64(n) * XPLineSize
				for i := 0; i < n; i++ {
					var a Addr
					if miss {
						a = MakeAddr(0, base+uint64(i*XPLineSize))
					} else {
						a = MakeAddr(0, base) // same XPLine: always a hit
					}
					th.Store(a, uint64(i+1))
					th.Persist(a, 8)
				}
				elapsed[w] = th.Now()
			}(w)
		}
		wg.Wait()
		var max int64
		for _, e := range elapsed {
			if e > max {
				max = e
			}
		}
		return max
	}
	missTime := runCase(true)
	hitTime := runCase(false)
	// The miss run is bounded by aggregate media bandwidth: fills plus
	// write-backs spread over the device's DIMMs.
	cfg := testPool(t, nil).Config()
	c := cfg.Cost
	mediaBound := int64(threads) * int64(n) * (c.MediaRead + c.MediaWrite) / int64(cfg.DIMMsPerSocket)
	if missTime < mediaBound/2 {
		t.Fatalf("media-bound run %d ns far below bandwidth bound %d ns", missTime, mediaBound)
	}
	if missTime <= hitTime*3/2 {
		t.Fatalf("media-bound run (%d ns) should exceed buffered run (%d ns)", missTime, hitTime)
	}
}

func TestReadCostsHitVsMiss(t *testing.T) {
	p := testPool(t, nil)
	wr := p.NewThread(0)
	// Persist then drain so nothing is cached anywhere.
	wr.Store(MakeAddr(0, 0), 7)
	wr.Persist(MakeAddr(0, 0), 8)
	p.DrainXPBuffers()

	rd := p.NewThread(0)
	before := rd.Now()
	rd.Load(MakeAddr(0, 0))
	missCost := rd.Now() - before
	if missCost < p.Config().Cost.PMReadMiss {
		t.Fatalf("cold read cost %d < PMReadMiss", missCost)
	}
	before = rd.Now()
	rd.Load(MakeAddr(0, 0)) // thread-local read cache hit
	if c := rd.Now() - before; c >= missCost {
		t.Fatalf("warm read (%d) not cheaper than cold (%d)", c, missCost)
	}
	s := p.Stats()
	if s.MediaReadBytes == 0 {
		t.Fatal("media read not counted")
	}
}

func TestCacheCapacityEviction(t *testing.T) {
	p := testPool(t, func(c *Config) { c.CacheLines = 64 })
	th := p.NewThread(0)
	// Dirty far more lines than the cache holds without ever flushing.
	for i := 0; i < 1024; i++ {
		//persistlint:ignore PL001 capacity-pressure test: evictions persist a subset, the crash rolls back the rest
		th.Store(MakeAddr(0, uint64(i*CachelineSize)), uint64(i))
	}
	s := p.Stats()
	if s.CacheEvictions == 0 {
		t.Fatal("no cache evictions despite capacity pressure")
	}
	// Evicted lines persisted: crash must keep at least some stores.
	p.Crash()
	th2 := p.NewThread(0)
	kept := 0
	for i := 0; i < 1024; i++ {
		if th2.Load(MakeAddr(0, uint64(i*CachelineSize))) == uint64(i) {
			kept++
		}
	}
	if kept == 0 || kept == 1024 {
		t.Fatalf("kept %d lines; expected evicted subset to persist and resident dirty lines to roll back", kept)
	}
}

func TestConcurrentDisjointAccess(t *testing.T) {
	p := testPool(t, nil)
	const workers = 8
	const per = 2000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			th := p.NewThread(w % p.Sockets())
			rng := rand.New(rand.NewSource(int64(w)))
			base := uint64(w) * 65536
			for i := 0; i < per; i++ {
				off := base + uint64(rng.Intn(8192))*8
				a := MakeAddr(w%p.Sockets(), off)
				//persistlint:ignore PL001 only every 4th store is persisted; the test measures flush traffic, not durability
				th.Store(a, uint64(i))
				if i%4 == 0 {
					th.Persist(a, 8)
				}
				_ = th.Load(a)
			}
		}(w)
	}
	wg.Wait()
	if p.Stats().XPBufWriteBytes == 0 {
		t.Fatal("no flush traffic recorded")
	}
}

// TestCrashRestartsDIMMsIdle checks that a power failure empties the
// DIMM arbiters: the first media access after Crash costs what it costs
// on a fresh pool, not a wait behind the media work queued before it.
func TestCrashRestartsDIMMsIdle(t *testing.T) {
	p := testPool(t, nil)
	th := p.NewThread(0)
	for i := int64(0); i < 512; i++ {
		a := MakeAddr(0, uint64(i*XPLineSize))
		th.Store(a, uint64(i+1))
		th.Persist(a, WordSize)
	}
	p.Crash()
	probe := MakeAddr(0, 600*XPLineSize)
	after := p.NewThread(0)
	after.Load(probe)
	fresh := testPool(t, nil).NewThread(0)
	fresh.Load(probe)
	if after.Now() != fresh.Now() {
		t.Fatalf("first load after Crash took %d ns, on a fresh pool %d ns", after.Now(), fresh.Now())
	}
}

func TestSaveLoadPersistent(t *testing.T) {
	p := testPool(t, nil)
	th := p.NewThread(0)
	th.Store(MakeAddr(0, 0), 11)
	th.Persist(MakeAddr(0, 0), 8)
	//persistlint:ignore PL001 deliberately unflushed: the saved image must not contain it
	th.Store(MakeAddr(0, 8), 22) // not flushed: must not be in the image
	var buf bytes.Buffer
	if err := p.SavePersistent(0, &buf); err != nil {
		t.Fatal(err)
	}
	p2 := testPool(t, nil)
	if err := p2.LoadPersistent(0, &buf); err != nil {
		t.Fatal(err)
	}
	th2 := p2.NewThread(0)
	if got := th2.Load(MakeAddr(0, 0)); got != 11 {
		t.Fatalf("restored word = %d", got)
	}
	if got := th2.Load(MakeAddr(0, 8)); got != 0 {
		t.Fatalf("unflushed word leaked into image: %d", got)
	}
}

func TestResetStats(t *testing.T) {
	p := testPool(t, nil)
	th := p.NewThread(0)
	th.Store(MakeAddr(0, 0), 1)
	th.Persist(MakeAddr(0, 0), 8)
	p.AddUserBytes(8)
	p.ResetStats()
	s := p.Stats()
	if s.XPBufWriteBytes != 0 || s.UserWriteBytes != 0 {
		t.Fatalf("counters not reset: %+v", s)
	}
}

func TestDefaultsApplied(t *testing.T) {
	p := NewPool(Config{})
	cfg := p.Config()
	if cfg.Sockets != 2 || cfg.DIMMsPerSocket != 4 || cfg.XPBufferLines != 64 {
		t.Fatalf("defaults not applied: %+v", cfg)
	}
	if cfg.DeviceBytes%XPLineSize != 0 {
		t.Fatal("capacity not XPLine aligned")
	}
}

// FlushNS/FenceNS must account exactly the virtual time the thread
// spends in flush/fence, so the span layer can carve those segments
// out of op latency by taking deltas.
func TestFlushFenceTimeAccounting(t *testing.T) {
	p := testPool(t, nil)
	th := p.NewThread(0)
	a := MakeAddr(0, 4096)
	if th.FlushNS() != 0 || th.FenceNS() != 0 {
		t.Fatal("fresh thread has nonzero flush/fence time")
	}
	th.Store(a, 1)
	v0, f0 := th.Now(), th.FlushNS()
	th.Flush(a, 8)
	flushDelta := th.FlushNS() - f0
	if flushDelta <= 0 {
		t.Fatalf("flush accounted %d ns", flushDelta)
	}
	if got := th.Now() - v0; got != flushDelta {
		t.Fatalf("flush advanced vt by %d but accounted %d", got, flushDelta)
	}
	v1, e0 := th.Now(), th.FenceNS()
	th.Fence()
	fenceDelta := th.FenceNS() - e0
	if fenceDelta <= 0 {
		t.Fatalf("fence accounted %d ns", fenceDelta)
	}
	if got := th.Now() - v1; got != fenceDelta {
		t.Fatalf("fence advanced vt by %d but accounted %d", got, fenceDelta)
	}
	// Persist is flush+fence; both accumulators keep growing.
	th.Store(a, 2)
	th.Persist(a, 8)
	if th.FlushNS() <= flushDelta || th.FenceNS() <= fenceDelta {
		t.Fatal("Persist did not accumulate flush/fence time")
	}
}
