package bench

import (
	"strings"
	"testing"

	"cclbtree"
	"cclbtree/internal/baselines/cclidx"
	"cclbtree/internal/pmem"
	"cclbtree/internal/workload"
)

func TestTableFprint(t *testing.T) {
	tab := &Table{
		Title:  "demo",
		Header: []string{"a", "b"},
		Rows:   [][]string{{"x", "1.00"}, {"longer-cell", "2.50"}},
		Note:   "a note",
	}
	var sb strings.Builder
	tab.Fprint(&sb)
	out := sb.String()
	for _, want := range []string{"## demo", "a note", "longer-cell", "2.50"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}
	// Columns align: header and rows share the first column width.
	lines := strings.Split(out, "\n")
	var hdr, row string
	for _, l := range lines {
		if strings.HasPrefix(l, "a ") {
			hdr = l
		}
		if strings.HasPrefix(l, "longer-cell") {
			row = l
		}
	}
	if hdr == "" || row == "" {
		t.Fatalf("table structure unexpected:\n%s", out)
	}
	if strings.Index(row, "2.50") != strings.Index(hdr, "b") {
		t.Fatalf("columns misaligned:\n%s", out)
	}
}

func TestResultMetrics(t *testing.T) {
	r := &Result{Ops: 1000, ElapsedNS: 2_000_000}
	if got := r.Mops(); got != 0.5 {
		t.Fatalf("Mops = %v", got)
	}
	r.UserBytes = 16000
	r.Stats = pmem.Stats{XPBufWriteBytes: 64000, MediaWriteBytes: 160000}
	if r.CLIAmp() != 4 || r.XBIAmp() != 10 {
		t.Fatalf("amps = %v %v", r.CLIAmp(), r.XBIAmp())
	}
	r.Latencies = []int64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	if r.Pct(0) != 1 || r.Pct(50) != 6 || r.Pct(99.9) != 10 {
		t.Fatalf("percentiles: %d %d %d", r.Pct(0), r.Pct(50), r.Pct(99.9))
	}
}

func TestLoadKeyProperties(t *testing.T) {
	seen := map[uint64]bool{}
	for i := 0; i < 100000; i++ {
		k := loadKey(nil, i)
		if k == 0 || k > 1<<62-1 {
			t.Fatalf("loadKey(%d) = %#x out of legal range", i, k)
		}
		if seen[k] {
			t.Fatalf("loadKey collision at %d", i)
		}
		seen[k] = true
		// Rank i+1 keeps the key the harness has always loaded for it
		// (SplitMix64 finalizer, masked to 62 bits), so recorded figures
		// stay comparable.
		x := uint64(i + 1)
		x ^= x >> 30
		x *= 0xbf58476d1ce4e5b9
		x ^= x >> 27
		x *= 0x94d049bb133111eb
		x ^= x >> 31
		if x &= 1<<62 - 1; x == 0 {
			x = 1
		}
		if k != x {
			t.Fatalf("loadKey(%d) = %#x, want %#x", i, k, x)
		}
	}
	// Explicit key sets wrap.
	keys := []uint64{7, 8, 9}
	if loadKey(keys, 4) != 8 {
		t.Fatal("explicit keyset indexing wrong")
	}
}

func TestByNameCoversAll(t *testing.T) {
	for _, e := range All() {
		got, ok := ByName(e.Name)
		if !ok || got.Name != e.Name {
			t.Fatalf("ByName(%q) failed", e.Name)
		}
		if e.Desc == "" {
			t.Fatalf("experiment %q undocumented", e.Name)
		}
	}
	if _, ok := ByName("nope"); ok {
		t.Fatal("unknown name accepted")
	}
}

func TestScaleDefaults(t *testing.T) {
	s := Scale{}.withDefaults()
	if s.Warm == 0 || s.Ops == 0 || len(s.Threads) == 0 || s.MainThreads == 0 {
		t.Fatalf("defaults missing: %+v", s)
	}
	s2 := Scale{Warm: 7}.withDefaults()
	if s2.Warm != 7 {
		t.Fatal("explicit field overridden")
	}
}

func TestRunReportsErrors(t *testing.T) {
	// A run against a pool too small to hold the load must surface the
	// allocation error, not hang or panic.
	pool := pmem.NewPool(pmem.Config{Sockets: 1, DeviceBytes: 1 << 20})
	idx, err := Indexes()[0](pool) // FPTree
	if err != nil {
		t.Fatal(err)
	}
	_, err = Run(pool, idx, Spec{Threads: 2, Warm: 500000, Ops: 10, Mix: workload.MixInsertOnly})
	if err == nil {
		t.Fatal("overflowing load did not error")
	}
}

// TestBlobLoadRecovers loads a CCL-BTree through the harness's value
// blobs (the Fig 15c / Fig 18 path), crashes the pool and reopens it:
// recovery reads each blob's length word, so the harness must write a
// real one, and every key must come back with the pointer it stored.
// The load runs on two threads, one per socket.
func TestBlobLoadRecovers(t *testing.T) {
	const warm = 2000
	pool := pmem.NewPool(pmem.Config{Sockets: 2, DIMMsPerSocket: 4, DeviceBytes: deviceBytes(warm, 1)})
	idx, err := cclidx.Factory("CCL-BTree", cclbtree.Config{ChunkBytes: 256 << 10})(pool)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(pool, idx, Spec{Threads: 2, Warm: warm, Ops: 1, Mix: workload.Mix{Read: 1}, ValueBlobBytes: 64}); err != nil {
		t.Fatal(err)
	}
	h := idx.NewHandle(0)
	stored := make([]uint64, warm)
	for i := range stored {
		v, ok := h.Lookup(loadKey(nil, i))
		if !ok || !cclbtree.IsIndirect(v) {
			t.Fatalf("key %d: value %#x, %v before the crash", i, v, ok)
		}
		stored[i] = v
	}
	idx.Close()
	pool.Crash()
	db, err := cclbtree.Open(pool, cclbtree.Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s := db.Session(0)
	for i, want := range stored {
		if v, ok := s.Get(loadKey(nil, i)); !ok || v != want {
			t.Fatalf("key %d: got %#x, %v after recovery, want %#x", i, v, ok, want)
		}
	}
}
