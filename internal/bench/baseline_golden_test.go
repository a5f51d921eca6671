package bench

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"testing"

	"cclbtree/internal/baselines/dptree"
	"cclbtree/internal/baselines/fastfair"
	"cclbtree/internal/baselines/flatstore"
	"cclbtree/internal/baselines/fptree"
	"cclbtree/internal/baselines/lbtree"
	"cclbtree/internal/baselines/lsm"
	"cclbtree/internal/baselines/pactree"
	"cclbtree/internal/baselines/utree"
	"cclbtree/internal/index"
)

// modelGolden is everything the device model reports about one scripted
// run: each handle's virtual clock, the device counters, the index's
// footprint and a hash of every value the reads returned.
type modelGolden struct {
	Now                                  [2]int64
	MediaWrite, MediaRead, XPBufWrite    uint64
	WriteHits, WriteMisses               uint64
	ReadHits, ReadMisses, RemoteAccesses uint64
	DRAM, PM                             int64
	Results                              uint64
}

// goldenScript drives one index through a fixed seeded op sequence:
// 4 200 distinct inserts (FAST&FAIR root growth with a cascading inner
// split, LSM flushes, a DPTree merge), a burst on one hot leaf
// (LB+-Tree's modeled HTM aborts), an update or delete of every key,
// then lookups and 50-key scans. Op i runs on handles[i %
// len(handles)], all from one goroutine, so the result is a function of
// the script alone.
func goldenScript(t *testing.T, f index.Factory, sockets int) modelGolden {
	t.Helper()
	const inserts = 4200
	pool := NewPool(inserts, sockets)
	idx, err := f(pool)
	if err != nil {
		t.Fatal(err)
	}
	defer idx.Close()
	hs := make([]index.Handle, sockets)
	for s := range hs {
		hs[s] = idx.NewHandle(s)
	}
	op := 0
	next := func() index.Handle { h := hs[op%len(hs)]; op++; return h }

	rng := rand.New(rand.NewSource(27))
	keys := make([]uint64, 0, inserts)
	seen := map[uint64]bool{}
	for len(keys) < inserts {
		k := rng.Uint64()>>20 | 1
		if seen[k] {
			continue
		}
		seen[k] = true
		keys = append(keys, k)
		if err := next().Upsert(k, k*3); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ { // one hot leaf: LB+-Tree's HTM conflicts
		if err := next().Upsert(keys[i%4], uint64(i)+1); err != nil {
			t.Fatal(err)
		}
	}
	// Touch every key once more — a third of them deleted, the rest
	// updated — with a delete of a likely absent key every 64 ops:
	// enough distinct writes for a second DPTree merge, which carries
	// updates and deletes into the base tree.
	for i, j := range rng.Perm(len(keys)) {
		var err error
		switch {
		case i%64 == 0:
			err = next().Delete(rng.Uint64()>>20 | 1)
		case i%3 == 0:
			err = next().Delete(keys[j])
		default:
			err = next().Upsert(keys[j], uint64(i)+7)
		}
		if err != nil {
			t.Fatal(err)
		}
	}
	hash := fnv.New64a()
	var buf [8]byte
	put := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		hash.Write(buf[:])
	}
	for i := 0; i < 2000; i++ {
		k := keys[rng.Intn(len(keys))]
		if i%4 == 0 {
			k = rng.Uint64()>>20 | 1
		}
		v, ok := next().Lookup(k)
		put(v)
		if ok {
			put(1)
		} else {
			put(0)
		}
	}
	out := make([]index.KV, 50)
	for i := 0; i < 100; i++ {
		n := next().Scan(keys[rng.Intn(len(keys))], len(out), out)
		put(uint64(n))
		for _, kv := range out[:n] {
			put(kv.Key)
			put(kv.Value)
		}
	}

	s := pool.Stats()
	g := modelGolden{
		MediaWrite: s.MediaWriteBytes, MediaRead: s.MediaReadBytes, XPBufWrite: s.XPBufWriteBytes,
		WriteHits: s.XPBufWriteHits, WriteMisses: s.XPBufWriteMisses,
		ReadHits: s.XPBufReadHits, ReadMisses: s.XPBufReadMisses,
		RemoteAccesses: s.RemoteAccesses,
		Results:        hash.Sum64(),
	}
	for i, h := range hs {
		g.Now[i] = h.Thread().Now()
	}
	g.DRAM, g.PM = idx.MemoryUsage()
	return g
}

// scriptResults is the hash of goldenScript's reads. Every index must
// return the same values, so it is one constant for all of them.
const scriptResults = 0xff5d5a2abfc5e65c

// TestBaselineModelGolden pins every comparison baseline's modeled
// behaviour — virtual time, device traffic, footprint and results — on
// a fixed script, single-handle and alternated over two sockets. The
// baselines are compositions of shared primitives; a refactor of those
// primitives must leave every number here unchanged.
func TestBaselineModelGolden(t *testing.T) {
	cases := []struct {
		name string
		f    index.Factory
		want [2]modelGolden // one handle; two handles on sockets 0 and 1
	}{
		{"FPTree", fptree.Factory(), [2]modelGolden{
			{Now: [2]int64{9504430, 0}, MediaWrite: 0xa9300, MediaRead: 0xf7700, XPBufWrite: 0x118100, WriteHits: 0x4445, WriteMisses: 0x1bf, ReadHits: 0x18ec, ReadMisses: 0xdb8, RemoteAccesses: 0x0, DRAM: 8940, PM: 114432, Results: scriptResults},
			{Now: [2]int64{5704696, 5841632}, MediaWrite: 0x0, MediaRead: 0x1bf00, XPBufWrite: 0x118100, WriteHits: 0x4445, WriteMisses: 0x1bf, ReadHits: 0x26d4, ReadMisses: 0x0, RemoteAccesses: 0x8ee4, DRAM: 8940, PM: 114432, Results: scriptResults},
		}},
		{"FAST&FAIR", fastfair.Factory(), [2]modelGolden{
			{Now: [2]int64{11309630, 0}, MediaWrite: 0xb2a00, MediaRead: 0x103a00, XPBufWrite: 0x18d5c0, WriteHits: 0x619f, WriteMisses: 0x1b8, ReadHits: 0x354a, ReadMisses: 0xe82, RemoteAccesses: 0x0, DRAM: 0, PM: 112640, Results: scriptResults},
			{Now: [2]int64{7561328, 7698280}, MediaWrite: 0x0, MediaRead: 0x1b800, XPBufWrite: 0x18d5c0, WriteHits: 0x619f, WriteMisses: 0x1b8, ReadHits: 0x441a, ReadMisses: 0x0, RemoteAccesses: 0xfac8, DRAM: 0, PM: 112640, Results: scriptResults},
		}},
		{"DPTree", dptree.Factory(), [2]modelGolden{
			{Now: [2]int64{5346966, 0}, MediaWrite: 0x7ba00, MediaRead: 0xfec00, XPBufWrite: 0x111340, WriteHits: 0x3edd, WriteMisses: 0x570, ReadHits: 0x782, ReadMisses: 0xa7c, RemoteAccesses: 0x0, DRAM: 16788, PM: 1722624, Results: scriptResults},
			{Now: [2]int64{2664924, 3107698}, MediaWrite: 0x6bb00, MediaRead: 0xfe000, XPBufWrite: 0x111340, WriteHits: 0x3edb, WriteMisses: 0x572, ReadHits: 0x76f, ReadMisses: 0xa6e, RemoteAccesses: 0xc5e, DRAM: 16788, PM: 2246912, Results: scriptResults},
		}},
		{"uTree", utree.Factory(), [2]modelGolden{
			{Now: [2]int64{8486732, 0}, MediaWrite: 0x184400, MediaRead: 0x2cad00, XPBufWrite: 0xc6fc0, WriteHits: 0x2122, WriteMisses: 0x109d, ReadHits: 0xe43, ReadMisses: 0x1c10, RemoteAccesses: 0x0, DRAM: 90304, PM: 180672, Results: scriptResults},
			{Now: [2]int64{4429306, 4577660}, MediaWrite: 0x109800, MediaRead: 0x1dcf00, XPBufWrite: 0xc6fc0, WriteHits: 0x24b8, WriteMisses: 0xd07, ReadHits: 0x1967, ReadMisses: 0x10c8, RemoteAccesses: 0x3588, DRAM: 90304, PM: 180672, Results: scriptResults},
		}},
		{"LB+-Tree", lbtree.Factory(), [2]modelGolden{
			{Now: [2]int64{8250254, 0}, MediaWrite: 0x9f800, MediaRead: 0xe7700, XPBufWrite: 0xe7240, WriteHits: 0x3820, WriteMisses: 0x1a9, ReadHits: 0x197e, ReadMisses: 0xcce, RemoteAccesses: 0x0, DRAM: 10200, PM: 108800, Results: scriptResults},
			{Now: [2]int64{4951288, 5049660}, MediaWrite: 0x0, MediaRead: 0x1a900, XPBufWrite: 0xe7240, WriteHits: 0x3820, WriteMisses: 0x1a9, ReadHits: 0x2687, ReadMisses: 0x0, RemoteAccesses: 0x6df7, DRAM: 10200, PM: 108800, Results: scriptResults},
		}},
		{"PACTree", pactree.Factory(), [2]modelGolden{
			{Now: [2]int64{9227036, 0}, MediaWrite: 0x8ee00, MediaRead: 0xccc00, XPBufWrite: 0x1593c0, WriteHits: 0x54ba, WriteMisses: 0x195, ReadHits: 0x1a97, ReadMisses: 0xb37, RemoteAccesses: 0x0, DRAM: 8100, PM: 103680, Results: scriptResults},
			{Now: [2]int64{5995512, 5984972}, MediaWrite: 0x0, MediaRead: 0x19500, XPBufWrite: 0x1593c0, WriteHits: 0x54ba, WriteMisses: 0x195, ReadHits: 0x25ef, ReadMisses: 0x0, RemoteAccesses: 0xb15f, DRAM: 8100, PM: 103680, Results: scriptResults},
		}},
		{"FlatStore", flatstore.Factory(), [2]modelGolden{
			{Now: [2]int64{5470868, 0}, MediaWrite: 0x32700, MediaRead: 0xc1f00, XPBufWrite: 0xa7f80, WriteHits: 0x26d7, WriteMisses: 0x327, ReadHits: 0xca6, ReadMisses: 0x8f8, RemoteAccesses: 0x0, DRAM: 67728, PM: 524288, Results: scriptResults},
			{Now: [2]int64{2628056, 2710400}, MediaWrite: 0x15500, MediaRead: 0x35500, XPBufWrite: 0xa7f80, WriteHits: 0x26d6, WriteMisses: 0x328, ReadHits: 0x1556, ReadMisses: 0x2d, RemoteAccesses: 0xbb4, DRAM: 67728, PM: 1048576, Results: scriptResults},
		}},
		{"LSM", lsm.Factory(), [2]modelGolden{
			{Now: [2]int64{4950800, 0}, MediaWrite: 0x52700, MediaRead: 0xcf300, XPBufWrite: 0xc7f80, WriteHits: 0x2cd7, WriteMisses: 0x527, ReadHits: 0x870, ReadMisses: 0x7cc, RemoteAccesses: 0x0, DRAM: 9184, PM: 1703936, Results: scriptResults},
			{Now: [2]int64{2740554, 2482582}, MediaWrite: 0x42800, MediaRead: 0xcf700, XPBufWrite: 0xc7f80, WriteHits: 0x2cd6, WriteMisses: 0x528, ReadHits: 0x823, ReadMisses: 0x7cf, RemoteAccesses: 0x63f, DRAM: 9184, PM: 2228224, Results: scriptResults},
		}},
	}
	for _, c := range cases {
		for i, sockets := range []int{1, 2} {
			got := goldenScript(t, c.f, sockets)
			if got != c.want[i] {
				t.Errorf("%s, %d handle(s):\n got %#v\nwant %#v", c.name, sockets, got, c.want[i])
			}
		}
	}
}
