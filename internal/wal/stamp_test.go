package wal

import (
	"testing"

	"cclbtree/internal/pmem"
)

func TestTimestampStampRoundTrip(t *testing.T) {
	cases := []struct{ key, value, tick uint64 }{
		{0, 0, 1},
		{1, 2, 3},
		{^uint64(0), ^uint64(0), MaxTick},
		{0xdeadbeef, 0xcafe, 1 << 40},
	}
	for _, c := range cases {
		w := EncodeTimestamp(c.key, c.value, c.tick)
		tick, ok := DecodeTimestamp(c.key, c.value, w)
		if !ok || tick != c.tick {
			t.Fatalf("round trip (%d,%d,%d): got tick=%d ok=%v", c.key, c.value, c.tick, tick, ok)
		}
	}
}

func TestTimestampStampBindsWords(t *testing.T) {
	// A timestamp word is only valid against the exact key and value it
	// was encoded with — the Frankenstein-entry defense: torn appends
	// over recycled chunks can pair new KV words with a stale timestamp
	// word, and such mixes must not decode.
	w := EncodeTimestamp(10, 20, 5)
	if _, ok := DecodeTimestamp(11, 20, w); ok {
		t.Fatal("timestamp word validated against wrong key")
	}
	if _, ok := DecodeTimestamp(10, 21, w); ok {
		t.Fatal("timestamp word validated against wrong value")
	}
	if _, ok := DecodeTimestamp(10, 20, w^1); ok {
		t.Fatal("corrupted check code validated")
	}
	if _, ok := DecodeTimestamp(10, 20, 0); ok {
		t.Fatal("unwritten (zero) word validated")
	}
}

func TestAppendRejectsOverflowTick(t *testing.T) {
	pool, m := testSetup(t, 4096)
	l := NewLog(m, 0)
	if _, err := l.Append(pool.NewThread(0), Entry{Key: 1, Timestamp: MaxTick + 1}); err == nil {
		t.Fatal("tick above MaxTick accepted")
	}
}

func TestScanDropsFrankensteinRecord(t *testing.T) {
	// Hand-craft a torn append on a recycled chunk: KV words from a new
	// record, timestamp word left over from an old one. The scan must
	// drop it and keep the intact neighbor.
	pool, m := testSetup(t, 256)
	th := pool.NewThread(0)
	chunk, err := m.AcquireChunk(0)
	if err != nil {
		t.Fatal(err)
	}
	// Record 0: intact.
	th.Store(chunk, 100)
	th.Store(chunk.Add(8), 200)
	th.Store(chunk.Add(16), EncodeTimestamp(100, 200, 7))
	// Record 1: new key/value drained, stale timestamp word (encoded for
	// a different record) still in place.
	th.Store(chunk.Add(24), 101)
	th.Store(chunk.Add(32), 201)
	th.Store(chunk.Add(40), EncodeTimestamp(55, 66, 3))
	th.Persist(chunk, 48)

	got := ReadEntriesInChunks(th, []pmem.Addr{chunk}, 256)
	if len(got) != 1 {
		t.Fatalf("scan returned %d entries, want 1 (Frankenstein dropped): %+v", len(got), got)
	}
	if got[0].Key != 100 || got[0].Value != 200 || got[0].Timestamp != 7 {
		t.Fatalf("intact record mangled: %+v", got[0])
	}
}
