package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"cclbtree/internal/pmem"
)

// fuzzPool is a deliberately small pool so each fuzz execution stays
// cheap: one socket, 2 MB.
func fuzzPool() *pmem.Pool {
	return pmem.NewPool(pmem.Config{Sockets: 1, DIMMsPerSocket: 1, DeviceBytes: 2 << 20, StrictPersist: true})
}

// fuzzOpts keeps the tree tiny (small WAL chunks, small directory).
func fuzzOpts(varKV bool) Options {
	return Options{ChunkBytes: 4096, GC: GCOff, VarKV: varKV, DirSlots: 64}
}

// FuzzRecoveryScan builds a small valid tree, crashes it, pokes
// arbitrary words into the persistent image, inspects it and recovers.
// The contract: Inspect and Open each either succeed or return an error
// (typically *CorruptError) — neither may panic or hang on malformed
// persisted bytes — and when Open accepts the image, basic reads must
// be safe.
func FuzzRecoveryScan(f *testing.F) {
	poke := func(off uint32, v uint64) []byte {
		var b [12]byte
		binary.LittleEndian.PutUint32(b[0:], off)
		binary.LittleEndian.PutUint64(b[4:], v)
		return b[:]
	}
	f.Add(false, []byte{})
	f.Add(true, []byte{})
	f.Add(false, poke(256+8, ^uint64(0)))      // superblock head-leaf word
	f.Add(false, poke(256+24, 1))              // superblock dir-slots word
	f.Add(false, poke(256+40, 1<<8|0x3f<<2))   // superblock flags: Nbatch field 63
	f.Add(true, poke(64<<10, uint64(1)<<63|1)) // a bogus blob pointer somewhere
	f.Add(false, append(poke(4096, 0xffff), poke(8192, 3)...))

	f.Fuzz(func(t *testing.T, varKV bool, script []byte) {
		pool := fuzzPool()
		tr, err := New(pool, fuzzOpts(varKV))
		if err != nil {
			t.Fatal(err)
		}
		w := tr.NewWorker(0)
		if varKV {
			for i := 0; i < 8; i++ {
				k := []byte{byte(i + 1), 0xaa}
				if err := putVar(w, k, append(k, 0xbb)); err != nil {
					t.Fatal(err)
				}
			}
		} else {
			for i := uint64(1); i <= 12; i++ {
				if err := w.Upsert(i, i*3); err != nil {
					t.Fatal(err)
				}
			}
		}
		tr.Freeze()
		pool.Crash()

		// Apply the corruption script: up to 64 word-aligned pokes
		// anywhere in the device image.
		th := pool.NewThread(0)
		for n := 0; n+12 <= len(script) && n < 64*12; n += 12 {
			off := uint64(binary.LittleEndian.Uint32(script[n:])) % uint64(pool.DeviceBytes())
			off &^= 7
			v := binary.LittleEndian.Uint64(script[n+4:])
			a := pmem.MakeAddr(0, off)
			th.Store(a, v)
			th.Persist(a, pmem.WordSize)
		}

		if rep, err := Inspect(pool); rep == nil && err == nil {
			t.Fatal("Inspect returned neither a report nor an error")
		}
		tr2, _, err := Open(pool, Options{}, 2)
		if err != nil {
			return // typed rejection is a legal outcome for a corrupt image
		}
		w2 := tr2.NewWorker(0)
		if varKV {
			_, _ = w2.LookupVar([]byte{1, 0xaa})
		} else {
			_, _ = w2.Lookup(1)
		}
		var out [16]KV
		_ = w2.Scan(0, 8, out[:])
		tr2.Freeze()
	})
}

// FuzzVarKVRoundTrip drives variable-size keys and values through
// upsert, overwrite, lookup, crash, and recovery: every write must read
// back byte-identical, live and after recovery.
func FuzzVarKVRoundTrip(f *testing.F) {
	f.Add([]byte("key"), []byte("value"), byte(3))
	f.Add([]byte{0}, []byte{}, byte(1))
	f.Add([]byte("a"), bytes.Repeat([]byte{0xee}, 300), byte(5))

	f.Fuzz(func(t *testing.T, key, value []byte, n byte) {
		if len(key) == 0 || len(key) > 1024 || len(value) > 1024 {
			t.Skip()
		}
		variants := int(n%8) + 1
		pool := fuzzPool()
		tr, err := New(pool, fuzzOpts(true))
		if err != nil {
			t.Fatal(err)
		}
		w := tr.NewWorker(0)
		want := map[string][]byte{}
		for i := 0; i < variants; i++ {
			k := append(append([]byte{}, key...), byte(i))
			v := append(append([]byte{}, value...), byte(i))
			if err := putVar(w, k, v); err != nil {
				t.Fatal(err)
			}
			want[string(k)] = v
		}
		// Overwrite the first variant: the newest version must win.
		k0 := append(append([]byte{}, key...), byte(0))
		v0 := append(append([]byte{}, value...), 0xff)
		if err := putVar(w, k0, v0); err != nil {
			t.Fatal(err)
		}
		want[string(k0)] = v0

		check := func(w *Worker, when string) {
			for k, v := range want {
				got, ok := w.LookupVar([]byte(k))
				if !ok || !bytes.Equal(got, v) {
					t.Fatalf("%s: key %x = %x (ok=%v), want %x", when, k, got, ok, v)
				}
			}
		}
		check(w, "live")
		tr.Freeze()
		pool.Crash()
		if rep, err := Inspect(pool); rep == nil && err == nil {
			t.Fatal("Inspect returned neither a report nor an error")
		}
		tr2, _, err := Open(pool, Options{}, 2)
		if err != nil {
			t.Fatalf("recovery of a valid image failed: %v", err)
		}
		check(tr2.NewWorker(0), "recovered")
		tr2.Freeze()
	})
}
