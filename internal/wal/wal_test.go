package wal

import (
	"testing"

	"cclbtree/internal/pmalloc"
	"cclbtree/internal/pmem"
)

func testSetup(t *testing.T, chunkBytes int) (*pmem.Pool, *Manager) {
	t.Helper()
	pool := pmem.NewPool(pmem.Config{Sockets: 2, DIMMsPerSocket: 2, DeviceBytes: 8 << 20, StrictPersist: true})
	return pool, NewManager(pmalloc.New(pool), chunkBytes)
}

func TestAppendAndRead(t *testing.T) {
	pool, m := testSetup(t, 4096)
	th := pool.NewThread(0)
	l := NewLog(m, 0)
	for i := uint64(1); i <= 100; i++ {
		if _, err := l.Append(th, Entry{Key: i, Value: i * 10, Timestamp: i}); err != nil {
			t.Fatal(err)
		}
	}
	got := l.Entries(th)
	if len(got) != 100 {
		t.Fatalf("read %d entries, want 100", len(got))
	}
	for i, e := range got {
		want := uint64(i + 1)
		if e.Key != want || e.Value != want*10 || e.Timestamp != want {
			t.Fatalf("entry %d = %+v", i, e)
		}
	}
}

func TestZeroTimestampRejected(t *testing.T) {
	pool, m := testSetup(t, 4096)
	l := NewLog(m, 0)
	if _, err := l.Append(pool.NewThread(0), Entry{Key: 1}); err == nil {
		t.Fatal("zero timestamp accepted")
	}
}

func TestChunkRollover(t *testing.T) {
	pool, m := testSetup(t, 256) // 10 entries per chunk (240 B used)
	th := pool.NewThread(0)
	l := NewLog(m, 0)
	for i := uint64(1); i <= 25; i++ {
		if _, err := l.Append(th, Entry{Key: i, Timestamp: i}); err != nil {
			t.Fatal(err)
		}
	}
	if got := l.ChunkBytes(); got != 3*256 {
		t.Fatalf("ChunkBytes = %d, want 3 chunks", got)
	}
	if got := len(l.Entries(th)); got != 25 {
		t.Fatalf("entries across chunks = %d", got)
	}
}

func TestDetachAndRecycle(t *testing.T) {
	pool, m := testSetup(t, 256)
	th := pool.NewThread(0)
	l := NewLog(m, 0)
	for i := uint64(1); i <= 20; i++ {
		_, _ = l.Append(th, Entry{Key: i, Timestamp: i})
	}
	chunks := l.Detach()
	if len(chunks) != 2 {
		t.Fatalf("detached %d chunks", len(chunks))
	}
	if l.Bytes() != 0 || l.ChunkBytes() != 0 {
		t.Fatal("log not reset by Detach")
	}
	m.ReleaseChunks(chunks)
	if m.FreeChunks(0) != 2 {
		t.Fatalf("free list has %d", m.FreeChunks(0))
	}
	// New log reuses recycled chunks; stale entries must not surface in
	// the new log's own view (it tracks its own tail).
	l2 := NewLog(m, 0)
	_, _ = l2.Append(th, Entry{Key: 99, Timestamp: 1000})
	got := l2.Entries(th)
	if len(got) != 1 || got[0].Key != 99 {
		t.Fatalf("recycled chunk leaked stale entries into live view: %+v", got)
	}
	if m.FreeChunks(0) != 1 {
		t.Fatal("chunk not taken from free list")
	}
}

func TestRawChunkScanSeesStaleEntries(t *testing.T) {
	// ReadEntriesInChunks is the restart path: it scans whole chunks
	// and WILL see stale entries; callers filter by timestamp. Verify
	// the contract: everything nonzero surfaces.
	pool, m := testSetup(t, 256)
	th := pool.NewThread(0)
	l := NewLog(m, 0)
	for i := uint64(1); i <= 10; i++ {
		_, _ = l.Append(th, Entry{Key: i, Timestamp: i})
	}
	chunks := l.Detach()
	m.ReleaseChunks(chunks)
	l2 := NewLog(m, 0)
	_, _ = l2.Append(th, Entry{Key: 50, Timestamp: 50})
	raw := ReadEntriesInChunks(th, chunks, 256)
	if len(raw) != 10 {
		t.Fatalf("raw scan found %d entries, want 10 (1 overwritten + 9 stale)", len(raw))
	}
	if raw[0].Key != 50 {
		t.Fatalf("first slot should hold the new entry, got %+v", raw[0])
	}
}

func TestAppendsSurviveCrash(t *testing.T) {
	pool, m := testSetup(t, 4096)
	th := pool.NewThread(0)
	l := NewLog(m, 0)
	for i := uint64(1); i <= 50; i++ {
		_, _ = l.Append(th, Entry{Key: i, Value: i, Timestamp: i})
	}
	pool.Crash()
	got := l.Entries(pool.NewThread(0))
	if len(got) != 50 {
		t.Fatalf("after crash %d entries, want all 50 (Append persists)", len(got))
	}
}

func TestWALTrafficTagged(t *testing.T) {
	pool, m := testSetup(t, 4096)
	th := pool.NewThread(0)
	l := NewLog(m, 0)
	for i := uint64(1); i <= 2000; i++ {
		_, _ = l.Append(th, Entry{Key: i, Timestamp: i})
	}
	pool.DrainXPBuffers()
	s := pool.Stats()
	wal := s.MediaWriteByScope[pmem.ScopeWAL]
	if wal == 0 {
		t.Fatal("WAL media writes not attributed")
	}
	if wal != s.MediaWriteBytes {
		t.Fatalf("unexpected non-WAL writes: %d of %d", wal, s.MediaWriteBytes)
	}
}

func TestSequentialAppendsAreWriteCombined(t *testing.T) {
	// The heart of the log-structured argument (§3.5): ~10.7 24 B
	// entries share one XPLine, so media writes per entry are small.
	pool, m := testSetup(t, 64<<10)
	th := pool.NewThread(0)
	l := NewLog(m, 0)
	const n = 4000
	for i := uint64(1); i <= n; i++ {
		_, _ = l.Append(th, Entry{Key: i, Value: i, Timestamp: i})
	}
	pool.DrainXPBuffers()
	s := pool.Stats()
	userBytes := uint64(n * EntrySize)
	ratio := float64(s.MediaWriteBytes) / float64(userBytes)
	if ratio > 1.5 {
		t.Fatalf("sequential log amplification %.2f, want ≈1", ratio)
	}
}

func TestSocketBinding(t *testing.T) {
	pool, m := testSetup(t, 4096)
	th := pool.NewThread(1)
	l := NewLog(m, 1)
	addr, err := l.Append(th, Entry{Key: 1, Timestamp: 1})
	if err != nil {
		t.Fatal(err)
	}
	if addr.Socket() != 1 {
		t.Fatalf("log chunk on socket %d, want 1", addr.Socket())
	}
}

func TestAllocatedChunksCounter(t *testing.T) {
	pool, m := testSetup(t, 256)
	th := pool.NewThread(0)
	l := NewLog(m, 0)
	for i := uint64(1); i <= 30; i++ {
		_, _ = l.Append(th, Entry{Key: i, Timestamp: i})
	}
	if m.AllocatedChunks() != 3 {
		t.Fatalf("allocated %d chunks", m.AllocatedChunks())
	}
	m.ReleaseChunks(l.Detach())
	l2 := NewLog(m, 0)
	for i := uint64(1); i <= 10; i++ {
		_, _ = l2.Append(th, Entry{Key: i, Timestamp: i})
	}
	if m.AllocatedChunks() != 3 {
		t.Fatalf("recycling should not allocate: %d", m.AllocatedChunks())
	}
}

func TestConcurrentAppendsDistinctLogs(t *testing.T) {
	pool, m := testSetup(t, 4096)
	const workers = 6
	const per = 2000
	done := make(chan []Entry, workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			th := pool.NewThread(w % 2)
			l := NewLog(m, w%2)
			for i := uint64(1); i <= per; i++ {
				if _, err := l.Append(th, Entry{Key: uint64(w)<<32 | i, Timestamp: i}); err != nil {
					t.Error(err)
					break
				}
			}
			done <- l.Entries(th)
		}(w)
	}
	for w := 0; w < workers; w++ {
		got := <-done
		if len(got) != per {
			t.Fatalf("worker log has %d entries, want %d", len(got), per)
		}
	}
}

func TestDetachDuringReads(t *testing.T) {
	// GC detaches a log while another thread reads a stale snapshot of
	// its chunks: the data must stay readable (chunks are not zeroed).
	pool, m := testSetup(t, 256)
	th := pool.NewThread(0)
	l := NewLog(m, 0)
	for i := uint64(1); i <= 50; i++ {
		_, _ = l.Append(th, Entry{Key: i, Timestamp: i})
	}
	chunks := l.Detach()
	raw := ReadEntriesInChunks(pool.NewThread(0), chunks, 256)
	if len(raw) != 50 {
		t.Fatalf("detached chunks lost entries: %d", len(raw))
	}
	m.ReleaseChunks(chunks)
}

// TestAppendZeroAlloc gates the per-op log write — three stores, one
// flush, one fence on the device model — at zero allocations per
// append (chunk rollover, once per 64 KB here, amortizes below one).
func TestAppendZeroAlloc(t *testing.T) {
	pool, m := testSetup(t, 64<<10)
	th := pool.NewThread(0)
	l := NewLog(m, 0)
	ts := uint64(0)
	appendOne := func() {
		ts++
		if _, err := l.Append(th, Entry{Key: ts, Value: ts, Timestamp: ts}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		appendOne()
	}
	if avg := testing.AllocsPerRun(5000, appendOne); avg != 0 {
		t.Fatalf("Append allocates %.2f objects/op, want 0", avg)
	}
}
