package wal

import (
	"runtime"
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

// TestReadEntryPartsTileTheScan checks that the n parts of a chunk set,
// concatenated, are exactly the whole-chunk scan in order, for part
// boundaries on and inside chunks. A 256 B chunk holds 10 records and a
// 16 B tail; the last of the three chunks is partly unwritten.
func TestReadEntryPartsTileTheScan(t *testing.T) {
	pool, m := testSetup(t, 256)
	th := pool.NewThread(0)
	l := NewLog(m, 0)
	for i := uint64(1); i <= 28; i++ {
		if _, err := l.Append(th, Entry{Key: i, Value: i * 3, Timestamp: i}); err != nil {
			t.Fatal(err)
		}
	}
	chunks := l.Detach()
	if len(chunks) != 3 {
		t.Fatalf("%d chunks, want 3", len(chunks))
	}
	whole := ReadEntriesInChunks(th, chunks, 256)
	if len(whole) != 28 {
		t.Fatalf("whole scan found %d entries, want 28", len(whole))
	}
	for i, e := range whole {
		if want := uint64(i + 1); e != (Entry{Key: want, Value: want * 3, Timestamp: want}) {
			t.Fatalf("whole scan entry %d = %+v", i, e)
		}
	}
	for n := 1; n <= 5; n++ {
		var got []Entry
		for p := 0; p < n; p++ {
			part := ReadEntryPart(th, chunks, 256, p, n)
			if len(part) > 30/n+1 {
				t.Fatalf("n=%d: part %d holds %d records of 30 slots", n, p, len(part))
			}
			got = append(got, part...)
		}
		if len(got) != len(whole) {
			t.Fatalf("n=%d: parts hold %d entries, whole scan %d", n, len(got), len(whole))
		}
		for i := range got {
			if got[i] != whole[i] {
				t.Fatalf("n=%d: entry %d = %+v, whole scan has %+v", n, i, got[i], whole[i])
			}
		}
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

// TestAppendErrorFencesPrefix runs a group out of chunks halfway: the
// records laid down before AcquireChunk failed must be durable when
// AppendBatch returns its error, so a crash right after keeps them.
func TestAppendErrorFencesPrefix(t *testing.T) {
	pool := pmem.NewPool(pmem.Config{Sockets: 1, DIMMsPerSocket: 1, DeviceBytes: 1 << 20, StrictPersist: true})
	alloc := pmalloc.New(pool)
	m := NewManager(alloc, 256) // 10 records per chunk
	th := pool.NewThread(0)
	l := NewLog(m, 0)
	if _, err := l.Append(th, Entry{Key: 1, Value: 1, Timestamp: 1}); err != nil {
		t.Fatal(err)
	}
	for {
		if _, err := alloc.Alloc(0, 256); err != nil {
			break
		}
	}
	var group []Entry
	for i := uint64(2); i <= 20; i++ {
		group = append(group, Entry{Key: i, Value: i, Timestamp: i})
	}
	if err := l.AppendBatch(th, group); err == nil {
		t.Fatal("AppendBatch past the last chunk succeeded")
	}
	pool.Crash()
	got := l.Entries(pool.NewThread(0))
	if len(got) != 10 {
		t.Fatalf("after crash %d records, want the 10 that fit the chunk", len(got))
	}
	for i, e := range got {
		if e.Key != uint64(i+1) {
			t.Fatalf("record %d = %+v", i, e)
		}
	}
}

// TestAppendConcurrentWithLogReads appends to one log while another
// goroutine reads its size and tail state, as the GC trigger and a GC
// round's reclaim do: the tail and chunk list are guarded by the log's
// lock on both sides, and -race reports an unguarded one.
func TestAppendConcurrentWithLogReads(t *testing.T) {
	pool, m := testSetup(t, 256)
	l := NewLog(m, 0)
	done := make(chan error, 1)
	go func() {
		th := pool.NewThread(0)
		for i := uint64(1); i <= 200; i++ {
			if _, err := l.Append(th, Entry{Key: i, Timestamp: i}); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	for {
		if b, c := l.Bytes(), l.ChunkBytes(); b > c {
			t.Fatalf("log holds %d record bytes in %d chunk bytes", b, c)
		}
		_ = l.TailFull()
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			return
		default:
			runtime.Gosched()
		}
	}
}
