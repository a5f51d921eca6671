package cclbtree

import (
	"fmt"
	"testing"
)

// TestModeMismatchedReads pins the read shim's mode check: a fixed-key
// read of a VarKV store (whose key words are blob pointers, not
// integers) and a byte-key read of a fixed store find nothing — no
// panic, no leaked pointer words, and not one byte read from PM —
// through the Session and through core.Worker, sharded or not.
func TestModeMismatchedReads(t *testing.T) {
	for _, shards := range []int{1, 4} {
		for _, varKV := range []bool{true, false} {
			t.Run(fmt.Sprintf("shards=%d/varkv=%v", shards, varKV), func(t *testing.T) {
				db := newShardedDB(t, shards, func(c *Config) { c.VarKV = varKV })
				defer db.Close()
				s := db.Session(0)
				for i := 1; i <= 300; i++ {
					var err error
					if varKV {
						err = s.PutVar([]byte(fmt.Sprintf("key-%04d", i)), []byte("value"))
					} else {
						err = s.Put(uint64(i), uint64(i))
					}
					if err != nil {
						t.Fatal(err)
					}
				}
				w := s.ws[0]
				out := make([]KV, 8)
				reads := map[string]func() int{ // each returns how many entries it found
					"Session.Get":           func() int { _, ok := s.Get(1 << 30); return btoi(ok) },
					"Session.GetLargeValue": func() int { _, ok := s.GetLargeValue(7); return btoi(ok) },
					"Session.Scan":          func() int { return s.Scan(1, out) },
					"Session.Range": func() (n int) {
						for range s.Range(1) {
							n++
						}
						return n
					},
					"Worker.Lookup":           func() int { _, ok := w.Lookup(1 << 30); return btoi(ok) },
					"Worker.LookupLargeValue": func() int { _, ok := w.LookupLargeValue(7); return btoi(ok) },
					"Worker.Scan":             func() int { return w.Scan(1, len(out), out) },
				}
				if !varKV {
					reads = map[string]func() int{
						"Session.GetVar":  func() int { _, ok := s.GetVar([]byte("key-0001")); return btoi(ok) },
						"Session.ScanVar": func() int { return len(s.ScanVar(nil, 8)) },
						"Session.RangeVar": func() (n int) {
							for range s.RangeVar(nil) {
								n++
							}
							return n
						},
						"Worker.LookupVar": func() int { _, ok := w.LookupVar([]byte("key-0001")); return btoi(ok) },
						"Worker.ScanVar":   func() int { return len(w.ScanVar(nil, 8)) },
					}
				}
				before := db.Pool().Stats()
				for name, read := range reads {
					if n := read(); n != 0 {
						t.Errorf("%s found %d entries across the mode boundary", name, n)
					}
				}
				after := db.Pool().Stats()
				if after.MediaReadBytes != before.MediaReadBytes || after.XPBufReadHits != before.XPBufReadHits {
					t.Errorf("mode-mismatched reads touched PM: media reads %d -> %d B, XPBuffer read hits %d -> %d",
						before.MediaReadBytes, after.MediaReadBytes, before.XPBufReadHits, after.XPBufReadHits)
				}
				if c := db.Metrics().Counters; c.Lookups != 0 || c.Scans != 0 {
					t.Errorf("rejected reads were counted: %d lookups, %d scans", c.Lookups, c.Scans)
				}
			})
		}
	}
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}

// TestScanVarBounds: ScanVar's max is a bound, not a size — none for
// max <= 0, everything for a bound far above the store (without
// allocating the bound), identically on one shard and on several.
func TestScanVarBounds(t *testing.T) {
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprint(shards), func(t *testing.T) {
			db := newShardedDB(t, shards, func(c *Config) { c.VarKV = true })
			defer db.Close()
			s := db.Session(0)
			const n = 300 // several scan pages
			for i := 0; i < n; i++ {
				if err := s.PutVar([]byte(fmt.Sprintf("key-%04d", i)), []byte(fmt.Sprint(i))); err != nil {
					t.Fatal(err)
				}
			}
			for _, max := range []int{0, -1, -1 << 40} {
				if got := s.ScanVar(nil, max); got != nil {
					t.Errorf("ScanVar(nil, %d) returned %d entries, want none", max, len(got))
				}
			}
			for _, max := range []int{1, 127, 128, 129, n, n + 1, 1 << 40} {
				got := s.ScanVar(nil, max)
				if want := min(max, n); len(got) != want {
					t.Fatalf("ScanVar(nil, %d) returned %d entries, want %d", max, len(got), want)
				}
				for i, kv := range got {
					if want := fmt.Sprintf("key-%04d", i); string(kv.Key) != want || string(kv.Value) != fmt.Sprint(i) {
						t.Fatalf("ScanVar(nil, %d)[%d] = %q:%q, want %q:%d", max, i, kv.Key, kv.Value, want, i)
					}
				}
			}
			if got := s.ScanVar([]byte("key-0290"), 1<<40); len(got) != 10 || string(got[0].Key) != "key-0290" {
				t.Errorf("ScanVar from key-0290 returned %d entries", len(got))
			}
		})
	}
}
