package cclbtree

import (
	"bytes"
	"testing"

	"cclbtree/internal/pmem"
)

func smallConfig() Config {
	return Config{
		ChunkBytes: 16 << 10,
		Platform: pmem.Config{
			Sockets:        2,
			DIMMsPerSocket: 2,
			DeviceBytes:    32 << 20,
		},
	}
}

func TestPublicQuickstart(t *testing.T) {
	db, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session(0)
	for i := uint64(1); i <= 2000; i++ {
		if err := s.Put(i, i*2); err != nil {
			t.Fatal(err)
		}
	}
	v, ok := s.Get(1000)
	if !ok || v != 2000 {
		t.Fatalf("Get = %d,%v", v, ok)
	}
	if err := s.Delete(1000); err != nil {
		t.Fatal(err)
	}
	if _, ok := s.Get(1000); ok {
		t.Fatal("deleted key found")
	}
	out := make([]KV, 5)
	n := s.Scan(50, out)
	if n != 5 || out[0].Key != 50 || out[4].Key != 54 {
		t.Fatalf("scan: n=%d %v", n, out[:n])
	}
}

func TestPublicCrashRecovery(t *testing.T) {
	db, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	s := db.Session(0)
	for i := uint64(1); i <= 3000; i++ {
		_ = s.Put(i, i+5)
	}
	db.Close()
	db.Pool().Crash()
	db2, err := Open(db.Pool(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	s2 := db2.Session(0)
	for i := uint64(1); i <= 3000; i++ {
		v, ok := s2.Get(i)
		if !ok || v != i+5 {
			t.Fatalf("lost key %d after crash: %d,%v", i, v, ok)
		}
	}
}

func TestPublicVarKV(t *testing.T) {
	cfg := smallConfig()
	cfg.VarKV = true
	db, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session(0)
	if err := s.PutVar([]byte("hello"), []byte("world")); err != nil {
		t.Fatal(err)
	}
	v, ok := s.GetVar([]byte("hello"))
	if !ok || !bytes.Equal(v, []byte("world")) {
		t.Fatalf("GetVar = %q,%v", v, ok)
	}
	res := s.ScanVar([]byte("h"), 10)
	if len(res) != 1 || string(res[0].Key) != "hello" {
		t.Fatalf("ScanVar = %v", res)
	}
}

func TestPublicLargeValues(t *testing.T) {
	db, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session(0)
	big := bytes.Repeat([]byte{7}, 300)
	if err := s.PutLargeValue(42, big); err != nil {
		t.Fatal(err)
	}
	v, ok := s.GetLargeValue(42)
	if !ok || !bytes.Equal(v, big) {
		t.Fatal("large value roundtrip failed")
	}
	// A nil value is an empty blob, not the tombstone.
	if err := s.PutLargeValue(43, nil); err != nil {
		t.Fatal(err)
	}
	if v, ok := s.GetLargeValue(43); !ok || len(v) != 0 {
		t.Fatalf("nil large value read back as %q,%v", v, ok)
	}
}

func TestPublicStatsSurface(t *testing.T) {
	db, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session(0)
	for i := uint64(1); i <= 1000; i++ {
		_ = s.Put(i, i)
	}
	db.Pool().DrainXPBuffers()
	st := db.Pool().Stats()
	if st.MediaWriteBytes == 0 || st.XPBufWriteBytes == 0 {
		t.Fatalf("hardware counters empty: %+v", st)
	}
	c := db.Metrics().Counters
	if c.Upserts != 1000 || c.LoggedWrites == 0 {
		t.Fatalf("tree counters wrong: %+v", c)
	}
	d, p := db.MemoryUsage()
	if d <= 0 || p <= 0 {
		t.Fatalf("memory usage: %d %d", d, p)
	}
}

func TestPublicAblationConfigs(t *testing.T) {
	for _, cfg := range []Config{
		{Nbatch: -1},
		{NaiveLogging: true},
		{GC: GCNaive, ChunkBytes: 8 << 10, THlog: 0.05},
	} {
		c := smallConfig()
		c.Nbatch = cfg.Nbatch
		c.NaiveLogging = cfg.NaiveLogging
		c.GC = cfg.GC
		c.THlog = cfg.THlog
		db, err := New(c)
		if err != nil {
			t.Fatal(err)
		}
		s := db.Session(0)
		for i := uint64(1); i <= 2000; i++ {
			_ = s.Put(i, i)
		}
		for i := uint64(1); i <= 2000; i++ {
			if v, ok := s.Get(i); !ok || v != i {
				t.Fatalf("cfg %+v: key %d = %d,%v", cfg, i, v, ok)
			}
		}
		db.Close()
	}
}
