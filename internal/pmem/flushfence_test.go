package pmem

import "testing"

// These tests pin the commitFlush corner cases the strict checker (and
// the crash model generally) relies on: a fence may retire a flush
// whose line was already written back, flushed twice, or re-dirtied
// after the clwb captured its snapshot.

func edgePool(t *testing.T) *Pool {
	t.Helper()
	return NewPool(Config{Sockets: 1, DeviceBytes: 1 << 20, StrictPersist: true})
}

// Double flush of the same dirty line: the first commitFlush at Fence
// cleans the line; the second finds no entry and must early-return
// without double-decrementing the dirty count.
func TestDoubleFlushSameLine(t *testing.T) {
	p := edgePool(t)
	th := p.NewThread(0)
	a := MakeAddr(0, 4096)
	th.Store(a, 7)
	th.Flush(a, 8)
	// The redundant flush is the behavior under test (dirty-count bookkeeping).
	th.Flush(a, 8) // same line, still dirty: second pending entry
	th.Fence()
	d := p.devs[0]
	if d.lineDirty(a.Offset() / CachelineSize) {
		t.Fatal("line still dirty after double flush + fence")
	}
	if n := d.dirtyCount.Load(); n != 0 {
		t.Fatalf("dirtyCount = %d after double flush + fence, want 0", n)
	}
	p.Crash()
	th2 := p.NewThread(0)
	if v := th2.Load(a); v != 7 {
		t.Fatalf("fenced value lost in crash: got %d, want 7", v)
	}
	th2.Release()
	p.Close()
}

// Fence after the flushed line was evicted from the modeled CPU cache:
// the eviction already wrote the line back and removed its entry, so
// commitFlush must treat the pending flush as already committed.
func TestFenceAfterEviction(t *testing.T) {
	p := edgePool(t)
	th := p.NewThread(0)
	a := MakeAddr(0, 4096)
	th.Store(a, 9)
	th.Flush(a, 8)
	// Force the eviction a full cache would trigger. Only one line is
	// dirty, so this deterministically evicts the flushed line.
	p.devs[0].evictOne(p, th)
	th.Fence() // pending flush targets a line with no entry left
	d := p.devs[0]
	if n := d.dirtyCount.Load(); n != 0 {
		t.Fatalf("dirtyCount = %d after fence-after-eviction, want 0", n)
	}
	p.Crash()
	th2 := p.NewThread(0)
	if v := th2.Load(a); v != 9 {
		t.Fatalf("evicted (written-back) value lost in crash: got %d, want 9", v)
	}
	th2.Release()
	p.Close()
}

// A line re-dirtied between clwb and sfence: the fence makes the
// *snapshot* durable, not the newer content, so commitFlush replaces
// the pre-image with the snapshot and leaves the line dirty. A crash
// then rolls back to the flushed value.
func TestRedirtiedAfterClwb(t *testing.T) {
	p := edgePool(t)
	th := p.NewThread(0)
	a := MakeAddr(0, 4096)
	th.Store(a, 1)
	th.Flush(a, 8) // snapshot captures value 1
	//persistlint:ignore PL001 deliberate re-dirty between clwb and sfence; the crash rolls it back
	th.Store(a, 2) // re-dirty the same line before the fence
	th.Fence()
	d := p.devs[0]
	line := a.Offset() / CachelineSize
	if !d.lineDirty(line) {
		t.Fatal("re-dirtied line became clean at fence; snapshot mismatch was ignored")
	}
	if v := th.Load(a); v != 2 {
		t.Fatalf("visible value = %d, want 2", v)
	}
	p.Crash()
	th2 := p.NewThread(0)
	if v := th2.Load(a); v != 1 {
		t.Fatalf("crash image = %d, want the flushed snapshot value 1", v)
	}
	th2.Release()
	p.Close()
}
