package main

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"

	"cclbtree"
	"cclbtree/internal/core"
	"cclbtree/internal/pmalloc"
	"cclbtree/internal/pmem"
	"cclbtree/internal/server"
	"cclbtree/internal/wal"
)

// The layer ladder drives the head of a workload's generated stream
// straight through each layer's public functions, bottom to top:
// pmem.Thread → pmalloc.Allocator → wal.Log → core.Worker →
// cclbtree.Session (1 and 2 shards) → server.Server (1 client). Each
// rung is timed from outside; a layer's self cost is its rung minus
// the rung below.

// ladderOpsPerSecond sizes the ladder like a measured phase.
const ladderOpsPerSecond = 30_000

const (
	ladderBatch = 64
	// persistBase is where the PM range the pmem rungs write begins.
	// The random rungs scatter over a quarter of the device (64 MB at
	// full scale: far beyond the modeled XPBuffers and CPU cache, like
	// the trees); the sequential rung writes upward from its end.
	persistBase = 1 << 20
)

// rung is one measured step of the ladder, per op.
type rung struct {
	name               string
	ops                int
	wallNS, modelNS    float64
	allocs, mediaBytes float64
}

type ladder struct {
	pl     *plan
	rungs  []rung
	failed int64
	tried  int64
	// scale2g is host throughput of two goroutines on two Threads over
	// that of one: 2 if the simulator runs them in parallel, as the
	// virtual clock assumes, 1 if it serializes them.
	scale2g float64
}

func (l *ladder) get(name string) rung {
	for _, r := range l.rungs {
		if r.name == name {
			return r
		}
	}
	return rung{}
}

// measure times body, which runs ops operations on pool; clock reads
// the model clock of whatever thread body advances.
func (l *ladder) measure(name string, ops int, pool *pmem.Pool, clock func() int64, body func()) rung {
	pool.DrainXPBuffers()
	pm0 := pool.Stats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	v0 := clock()
	t0 := nowNS()
	body()
	t1 := nowNS()
	v1 := clock()
	runtime.ReadMemStats(&m1)
	pool.DrainXPBuffers()
	pm := pool.Stats().Sub(pm0)
	n := float64(ops)
	r := rung{
		name:       name,
		ops:        ops,
		wallNS:     float64(t1-t0) / n,
		modelNS:    float64(v1-v0) / n,
		allocs:     float64(m1.Mallocs-m0.Mallocs) / n,
		mediaBytes: float64(pm.MediaWriteBytes) / n,
	}
	l.rungs = append(l.rungs, r)
	return r
}

// newPool returns a fresh modeled platform whose memory is faulted in
// before the rung starts, as a repeat's is (see newDB): otherwise the
// first rung on a pool pays the page faults of whatever it touches.
func (l *ladder) newPool() *pmem.Pool {
	debug.FreeOSMemory()
	return pmem.NewPool(l.pl.platform)
}

func (l *ladder) newDB(shards int) (*cclbtree.DB, error) {
	return newDB(cclbtree.Config{Shards: shards, Platform: l.pl.platform})
}

func (l *ladder) check(ok bool) {
	l.tried++
	if !ok {
		l.failed++
	}
}

// ladderKeys is the key of each of the first n ops of the workload's
// streams, in stream order.
func ladderKeys(pl *plan, n int) []uint64 {
	keys := make([]uint64, 0, n)
	for _, s := range pl.streams {
		for i := range s {
			if len(keys) == n {
				return keys
			}
			keys = append(keys, s[i].key)
		}
	}
	return keys
}

type workerTarget struct{ w *core.Worker }

func (t workerTarget) Put(key, value uint64) error   { return t.w.Upsert(key, value) }
func (t workerTarget) Get(key uint64) (uint64, bool) { return t.w.Lookup(key) }
func (t workerTarget) Scan(start uint64, out []cclbtree.KV) int {
	return t.w.Scan(start, len(out), out)
}
func (t workerTarget) Now() int64 { return t.w.Thread().Now() }

// ladderOps is the ladder's length for a run: 180 000 ops at the default
// --seconds of 6.
func ladderOps(o options) int {
	return max(int(float64(ladderOpsPerSecond*o.seconds)*o.scale), 2*ladderBatch)
}

// runLadder measures every rung on the keys of the first n ops of the
// workload's streams.
func runLadder(pl *plan, n int) (*ladder, error) {
	keys := ladderKeys(pl, n)
	n = len(keys)
	l := &ladder{pl: pl}
	l.pmemRungs(keys)
	l.pmallocRung(n)
	if err := l.walRungs(keys); err != nil {
		return nil, err
	}
	if err := l.coreRungs(keys); err != nil {
		return nil, err
	}
	if err := l.sessionRungs(keys); err != nil {
		return nil, err
	}
	if err := l.serverRungs(keys); err != nil {
		return nil, err
	}
	return l, nil
}

// persist16 is the primitive every durable write is made of: two 8 B
// stores, one clwb, one sfence.
func persist16(t *pmem.Thread, a pmem.Addr, k, v uint64) {
	t.Store(a, k)
	t.Store(a.Add(8), v)
	t.Flush(a, 16)
	t.Fence()
}

func (l *ladder) pmemRungs(keys []uint64) {
	pool := l.newPool()
	t := pool.NewThread(0)
	region := uint64(pool.DeviceBytes()) / 4
	randAddr := func(key uint64) pmem.Addr {
		return pmem.MakeAddr(0, persistBase+mix64(key)%(region/16)*16)
	}
	l.measure("pmem.persist16_rand", len(keys), pool, t.Now, func() {
		for _, k := range keys {
			persist16(t, randAddr(k), k, k)
		}
	})
	l.measure("pmem.persist16_seq", len(keys), pool, t.Now, func() {
		for i, k := range keys {
			persist16(t, pmem.MakeAddr(0, persistBase+region+uint64(i)*16), k, k)
		}
	})
	var loaded uint64
	l.measure("pmem.load_rand", len(keys), pool, t.Now, func() {
		for _, k := range keys {
			loaded += t.Load(randAddr(k))
		}
	})
	l.check(loaded != 0) // every slot loaded was stored a nonzero key above
	// Two goroutines on two Threads, each repeating the whole rung.
	one := l.get("pmem.persist16_rand")
	var wg sync.WaitGroup
	two := l.measure("pmem.persist16_rand_2g", 2*len(keys), pool, t.Now, func() {
		for g := range 2 {
			wg.Add(1)
			go func() {
				defer wg.Done()
				tg := pool.NewThread(0)
				for _, k := range keys {
					persist16(tg, randAddr(k+uint64(g)), k, k)
				}
			}()
		}
		wg.Wait()
	})
	l.scale2g = ratio(one.wallNS, two.wallNS)
}

func (l *ladder) pmallocRung(n int) {
	pool := l.newPool()
	a := pmalloc.New(pool)
	// The allocator takes no Thread: its metadata is DRAM, so it has no
	// model time of its own.
	l.measure("pmalloc.alloc_free", n, pool, func() int64 { return 0 }, func() {
		for range n {
			addr, err := a.Alloc(0, pmem.XPLineSize)
			l.check(err == nil)
			a.Free(addr, pmem.XPLineSize)
		}
	})
}

func (l *ladder) walRungs(keys []uint64) error {
	pool := l.newPool()
	m := wal.NewManager(pmalloc.New(pool), 0)
	t := pool.NewThread(0)
	log := wal.NewLog(m, 0)
	var err error
	l.measure("wal.append", len(keys), pool, t.Now, func() {
		for i, k := range keys {
			if _, e := log.Append(t, wal.Entry{Key: k, Value: k, Timestamp: uint64(i) + 1}); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return fmt.Errorf("ladder: wal.Append: %w", err)
	}
	batchLog := wal.NewLog(m, 0)
	entries := make([]wal.Entry, ladderBatch)
	whole := len(keys) / ladderBatch * ladderBatch
	l.measure("wal.append_batch64", whole, pool, t.Now, func() {
		for lo := 0; lo < whole; lo += ladderBatch {
			for i, k := range keys[lo : lo+ladderBatch] {
				entries[i] = wal.Entry{Key: k, Value: k, Timestamp: uint64(lo+i) + 1}
			}
			if e := batchLog.AppendBatch(t, entries); e != nil {
				err = e
			}
		}
	})
	if err != nil {
		return fmt.Errorf("ladder: wal.AppendBatch: %w", err)
	}
	return nil
}

// treeRungs drives put, get and scan through one target on a fresh
// store and is shared by the core and cclbtree rungs.
func (l *ladder) treeRungs(layer, putName, getName string, pool *pmem.Pool, t target, keys []uint64) {
	l.measure(layer+"."+putName, len(keys), pool, t.Now, func() {
		for _, k := range keys {
			l.check(t.Put(k, valueOf(k, 1)) == nil)
		}
	})
	l.measure(layer+"."+getName, len(keys), pool, t.Now, func() {
		for _, k := range keys {
			v, ok := t.Get(k)
			l.check(ok && v == valueOf(k, 1))
		}
	})
	var out [scanLen]cclbtree.KV
	scans := keys[:max(len(keys)/16, 1)]
	l.measure(layer+".scan100", len(scans), pool, t.Now, func() {
		for _, k := range scans {
			n := t.Scan(k, out[:])
			l.check(n > 0 && out[0].Key == k)
		}
	})
}

func (l *ladder) coreRungs(keys []uint64) error {
	pool := l.newPool()
	tr, err := core.New(pool, core.Options{})
	if err != nil {
		return err
	}
	l.treeRungs("core", "upsert", "lookup", pool, workerTarget{tr.NewWorker(0)}, keys)
	tr.Freeze()

	pool = l.newPool()
	if tr, err = core.New(pool, core.Options{}); err != nil {
		return err
	}
	w := tr.NewWorker(0)
	ops := make([]core.BatchOp, ladderBatch)
	whole := len(keys) / ladderBatch * ladderBatch
	l.measure("core.apply64", whole, pool, w.Thread().Now, func() {
		for lo := 0; lo < whole; lo += ladderBatch {
			for i, k := range keys[lo : lo+ladderBatch] {
				ops[i] = core.BatchOp{Key: k, Value: valueOf(k, 1)}
			}
			l.check(w.ApplyBatch(ops) == nil)
		}
	})
	tr.Freeze()
	return nil
}

func (l *ladder) sessionRungs(keys []uint64) error {
	db, err := l.newDB(1)
	if err != nil {
		return err
	}
	l.treeRungs("cclbtree", "put", "get", db.Pool(), db.Session(0), keys)
	db.Close()

	if db, err = l.newDB(1); err != nil {
		return err
	}
	s := db.Session(0)
	var b cclbtree.Batch
	whole := len(keys) / ladderBatch * ladderBatch
	l.measure("cclbtree.apply64", whole, db.Pool(), s.Now, func() {
		for lo := 0; lo < whole; lo += ladderBatch {
			b.Reset()
			for _, k := range keys[lo : lo+ladderBatch] {
				b.Put(k, valueOf(k, 1))
			}
			l.check(s.Apply(&b) == nil)
		}
	})
	db.Close()

	if db, err = l.newDB(2); err != nil {
		return err
	}
	s = db.Session(0)
	l.measure("cclbtree.put_shards2", len(keys), db.Pool(), s.Now, func() {
		for _, k := range keys {
			l.check(s.Put(k, valueOf(k, 1)) == nil)
		}
	})
	db.Close()
	return nil
}

func (l *ladder) serverRungs(keys []uint64) error {
	db, err := l.newDB(1)
	if err != nil {
		return err
	}
	srv, err := server.New(server.Config{DB: db})
	if err != nil {
		return err
	}
	noClock := func() int64 { return 0 }
	l.measure("server.put", len(keys), db.Pool(), noClock, func() {
		for _, k := range keys {
			l.check(srv.Put(k, valueOf(k, 1)) == nil)
		}
	})
	l.measure("server.get", len(keys), db.Pool(), noClock, func() {
		for _, k := range keys {
			v, ok, err := srv.Get(k)
			l.check(err == nil && ok && v == valueOf(k, 1))
		}
	})
	srv.Close()
	db.Close()
	return nil
}
