package pmem

import (
	"runtime"
	"testing"
)

func TestWriteRangeSpansLines(t *testing.T) {
	p := testPool(t, nil)
	th := p.NewThread(0)
	// 40 words = 320 B: spans five cachelines and two XPLines.
	src := make([]uint64, 40)
	for i := range src {
		src[i] = uint64(i + 1)
	}
	a := MakeAddr(0, 192) // deliberately not line-aligned to an XPLine start
	th.WriteRange(a, src)
	th.Persist(a, len(src)*8)
	p.Crash()
	dst := make([]uint64, 40)
	p.NewThread(0).ReadRange(a, dst)
	for i := range src {
		if dst[i] != src[i] {
			t.Fatalf("word %d lost: %d", i, dst[i])
		}
	}
}

func TestRewindOnlyMovesBack(t *testing.T) {
	p := testPool(t, nil)
	th := p.NewThread(0)
	th.Advance(1000)
	mark := th.Now()
	th.Advance(500)
	th.Rewind(mark)
	if th.Now() != mark {
		t.Fatalf("Rewind failed: %d", th.Now())
	}
	th.Rewind(mark + 10_000) // forward rewind must be a no-op
	if th.Now() != mark {
		t.Fatalf("Rewind moved forward: %d", th.Now())
	}
}

func TestSyncClock(t *testing.T) {
	p := testPool(t, nil)
	th := p.NewThread(0)
	th.SyncClock(5000)
	if th.Now() != 5000 {
		t.Fatalf("SyncClock up failed: %d", th.Now())
	}
	th.SyncClock(100) // never moves backward
	if th.Now() != 5000 {
		t.Fatalf("SyncClock moved backward: %d", th.Now())
	}
}

func TestEADREvictionsCarryDirtyLines(t *testing.T) {
	p := testPool(t, func(c *Config) {
		c.Mode = EADR
		c.CacheLines = 256
	})
	th := p.NewThread(0)
	const n = 4096
	for i := 0; i < n; i++ {
		//persistlint:ignore PL001 the pool runs in eADR mode: stores are durable without flushing
		th.Store(MakeAddr(0, uint64(i*CachelineSize)), uint64(i+1))
	}
	s := p.Stats()
	if s.CacheEvictions < n/2 {
		t.Fatalf("evictions %d; capacity pressure should evict most lines", s.CacheEvictions)
	}
	p.DrainXPBuffers()
	if p.Stats().MediaWriteBytes == 0 {
		t.Fatal("evicted lines never reached media")
	}
	// All values survive a crash (eADR).
	p.Crash()
	th2 := p.NewThread(0)
	for i := 0; i < n; i++ {
		if got := th2.Load(MakeAddr(0, uint64(i*CachelineSize))); got != uint64(i+1) {
			t.Fatalf("line %d lost: %d", i, got)
		}
	}
}

func TestCleanXPBufferEvictionIsFree(t *testing.T) {
	// Read-filled (clean) XPLines must not count media WRITES when
	// evicted.
	p := testPool(t, func(c *Config) { c.XPBufferLines = 4 })
	wr := p.NewThread(0)
	// Persist some data first.
	for i := 0; i < 64; i++ {
		a := MakeAddr(0, uint64(i*XPLineSize))
		wr.Store(a, uint64(i+1))
		wr.Persist(a, 8)
	}
	p.DrainXPBuffers()
	p.ResetStats()
	// Cold reads churn the tiny XPBuffer with clean fills.
	rd := p.NewThread(0)
	for i := 0; i < 64; i++ {
		_ = rd.Load(MakeAddr(0, uint64(i*XPLineSize)))
	}
	s := p.Stats()
	if s.MediaWriteBytes != 0 {
		t.Fatalf("clean evictions wrote %d bytes to media", s.MediaWriteBytes)
	}
	if s.MediaReadBytes == 0 {
		t.Fatal("no media reads recorded for cold loads")
	}
}

func TestAuxSingleton(t *testing.T) {
	p := testPool(t, nil)
	n := 0
	mk := func() any { n++; v := n; return &v }
	a := p.Aux("k", mk)
	b := p.Aux("k", mk)
	if a != b || n != 1 {
		t.Fatalf("Aux not a singleton: %v %v n=%d", a, b, n)
	}
	c := p.Aux("other", mk)
	if c == a || n != 2 {
		t.Fatal("Aux keys not independent")
	}
}

func TestReadRangeChargesPerXPLine(t *testing.T) {
	p := testPool(t, nil)
	// Persist a 256 B object, drain, then read it whole: exactly one
	// media read (one XPLine), not four.
	wr := p.NewThread(0)
	words := make([]uint64, 32)
	wr.WriteRange(MakeAddr(0, 0), words)
	wr.Persist(MakeAddr(0, 0), 256)
	p.DrainXPBuffers()
	p.ResetStats()
	rd := p.NewThread(0)
	dst := make([]uint64, 32)
	rd.ReadRange(MakeAddr(0, 0), dst)
	if s := p.Stats(); s.MediaReadBytes != XPLineSize {
		t.Fatalf("whole-leaf read cost %d media bytes, want one XPLine", s.MediaReadBytes)
	}
}

// TestConcurrentLoadStoreSameWord has one thread store a word while
// another loads it. Device words are shared by every thread of the
// pool, so each access is atomic; under -race a plain access on either
// side is reported. The loader caches the line before the storer
// starts and yields between loads, so on every schedule some load runs
// between stores it is not ordered with.
func TestConcurrentLoadStoreSameWord(t *testing.T) {
	p := testPool(t, nil)
	a := MakeAddr(0, 4096)
	started, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		<-started
		th := p.NewThread(0)
		for i := uint64(1); i <= 1000; i++ {
			th.Store(a, i)
		}
		th.Persist(a, WordSize)
	}()
	th := p.NewThread(0)
	th.Load(a)
	close(started)
	for {
		if v := th.Load(a); v > 1000 {
			t.Fatalf("loaded %d, never stored", v)
		}
		select {
		case <-done:
			return
		default:
			runtime.Gosched()
		}
	}
}
