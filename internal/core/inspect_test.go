package core

import (
	"bytes"
	"errors"
	"testing"
	"time"

	"cclbtree/internal/pmem"
	"cclbtree/internal/pmleaf"
)

func TestInspectHealthyTree(t *testing.T) {
	tr, w := newTestTree(t, Options{GC: GCOff}, nil)
	for i := uint64(1); i <= 3000; i++ {
		_ = w.Upsert(i, i)
	}
	for i := uint64(1); i <= 3000; i += 5 {
		_ = w.Delete(i)
	}
	rep, err := Inspect(tr.Pool())
	if err != nil {
		t.Fatal(err)
	}
	if rep.Leaves < 100 {
		t.Fatalf("leaves = %d", rep.Leaves)
	}
	if rep.ChainBrokenAt != -1 {
		t.Fatalf("healthy tree reported order violation at %d", rep.ChainBrokenAt)
	}
	if rep.LogEntries == 0 {
		t.Fatal("no WAL entries visible")
	}
	if rep.FenceEntries == 0 {
		t.Fatal("deletes should leave fence tombstones")
	}
	// Live + buffered must cover the survivors (buffered entries are
	// not in leaves yet, so live ≤ survivors).
	if rep.LiveEntries > 3000 {
		t.Fatalf("live entries %d exceed inserted keys", rep.LiveEntries)
	}
	var buf bytes.Buffer
	rep.Fprint(&buf)
	if buf.Len() == 0 {
		t.Fatal("report rendered empty")
	}
}

func TestInspectDetectsOrderViolation(t *testing.T) {
	tr, w := newTestTree(t, Options{GC: GCOff}, nil)
	for i := uint64(1); i <= 1000; i++ {
		_ = w.Upsert(i, i)
	}
	// Corrupt a leaf deliberately: write a huge key into the second
	// leaf's first valid slot so it overlaps every successor.
	th := tr.Pool().NewThread(0)
	second := tr.head.next.Load()
	if second == nil {
		t.Skip("tree too small")
	}
	var img pmleaf.Image
	img.Read(th, second.leaf)
	for i := 0; i < LeafSlots; i++ {
		if img.Valid(i) {
			th.Store(pmleaf.SlotAddr(second.leaf, i), 1<<60)
			th.Persist(pmleaf.SlotAddr(second.leaf, i), 8)
			break
		}
	}
	rep, err := Inspect(tr.Pool())
	if err != nil {
		t.Fatal(err)
	}
	if rep.ChainBrokenAt < 0 {
		t.Fatal("deliberate corruption not detected")
	}
}

func TestInspectRejectsEmptyPool(t *testing.T) {
	pool := pmem.NewPool(pmem.Config{Sockets: 1, DeviceBytes: 1 << 20, StrictPersist: true})
	if _, err := Inspect(pool); err == nil {
		t.Fatal("empty pool accepted")
	}
}

// TestInspectRejectsMalformedImages: Inspect reads an image through
// Open's checks, so a head leaf whose next pointer names itself or runs
// off the device is a *CorruptError (not an endless walk or a panic),
// and an image that is not one whole-device tree is refused instead of
// read as a leaf list. Each call runs under a deadline, so a hang fails
// the test instead of stalling the suite.
func TestInspectRejectsMalformedImages(t *testing.T) {
	cases := []struct {
		name    string
		opts    Options
		poke    func(tr *Tree, th *pmem.Thread)
		corrupt bool // the error must be a *CorruptError
	}{
		{"head leaf names itself", Options{}, func(tr *Tree, th *pmem.Thread) {
			setNext(th, tr.head.leaf, tr.head.leaf)
		}, true},
		{"head leaf points off the device", Options{}, func(tr *Tree, th *pmem.Thread) {
			setNext(th, tr.head.leaf, pmem.MakeAddr(0, uint64(tr.Pool().DeviceBytes())+LeafBytes))
		}, true},
		// The superblock flags word of a hash table's image (internal/cclhash):
		// the directory bit is set and the root is a bucket array.
		{"another index's image", Options{}, func(tr *Tree, th *pmem.Thread) {
			flags := tr.sbAddr().Add(5 * pmem.WordSize)
			th.Store(flags, th.Load(flags)|sbIndex)
			th.Persist(flags, pmem.WordSize)
		}, false},
		{"arena 0 of two", Options{ArenaCount: 2}, nil, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			c.opts.GC = GCOff
			tr, w := newTestTree(t, c.opts, nil)
			for i := uint64(1); i <= 300; i++ {
				if err := w.Upsert(i, i); err != nil {
					t.Fatal(err)
				}
			}
			tr.Freeze()
			if c.poke != nil {
				c.poke(tr, tr.Pool().NewThread(0))
			}
			type outcome struct {
				err   error
				panic any
			}
			done := make(chan outcome, 1)
			go func() {
				defer func() {
					if p := recover(); p != nil {
						done <- outcome{panic: p}
					}
				}()
				_, err := Inspect(tr.Pool())
				done <- outcome{err: err}
			}()
			select {
			case o := <-done:
				var ce *CorruptError
				switch {
				case o.panic != nil:
					t.Fatalf("Inspect panicked: %v", o.panic)
				case o.err == nil:
					t.Fatal("Inspect accepted the image")
				case c.corrupt && !errors.As(o.err, &ce):
					t.Fatalf("Inspect: %v, want a *CorruptError", o.err)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("Inspect did not return within 10 s")
			}
		})
	}
}

// setNext points leaf's persistent next pointer at next, keeping its
// bitmap.
func setNext(th *pmem.Thread, leaf, next pmem.Addr) {
	var img pmleaf.Image
	img.Read(th, leaf)
	th.Store(pmleaf.MetaAddr(leaf), pmleaf.PackMeta(img.Bitmap(), next))
	th.Persist(pmleaf.MetaAddr(leaf), pmem.WordSize)
}
