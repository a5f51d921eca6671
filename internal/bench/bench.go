// Package bench is the experiment harness: it regenerates every table
// and figure of the paper's evaluation (§5) on the PM device model,
// printing the same rows and series the paper reports.
//
// Throughputs are simulated-time throughputs: each worker goroutine is
// one "thread" with a virtual clock charged by the cost model, and a
// run's elapsed time is the slowest thread's clock advance. Shapes —
// which index wins, by what factor, where crossovers fall — are the
// reproduction target; absolute Mop/s depend on the calibration
// constants in pmem.DefaultCostModel.
package bench

import (
	"fmt"
	"io"
	"math/rand"
	"sort"
	"strings"
	"sync"

	"cclbtree"
	"cclbtree/internal/baselines/cclidx"
	"cclbtree/internal/baselines/dptree"
	"cclbtree/internal/baselines/fastfair"
	"cclbtree/internal/baselines/flatstore"
	"cclbtree/internal/baselines/fptree"
	"cclbtree/internal/baselines/lbtree"
	"cclbtree/internal/baselines/lsm"
	"cclbtree/internal/baselines/pactree"
	"cclbtree/internal/baselines/utree"
	"cclbtree/internal/index"
	"cclbtree/internal/obs"
	"cclbtree/internal/pmalloc"
	"cclbtree/internal/pmem"
	"cclbtree/internal/workload"
)

// Scale sets the experiment sizes. The paper's runs (50 M warm + 50 M
// ops, up to 96 threads) are scaled down by default so the whole suite
// finishes in minutes; pass a larger Scale to push toward paper size.
type Scale struct {
	// Warm is the number of keys loaded before measurement.
	Warm int
	// Ops is the number of measured operations.
	Ops int
	// Threads is the thread sweep used by the vs-threads figures.
	Threads []int
	// MainThreads is the fixed thread count of the single-point
	// experiments (the paper uses 48).
	MainThreads int
	// ScanLen is the default range-query length (paper: 100).
	ScanLen int
	// Seed makes runs reproducible.
	Seed int64
	// Tracer, when non-nil and enabled, is attached by experiments that
	// build metrics-enabled CCL trees (currently ycsbb) so operation,
	// device and span-segment events land in its ring (cclbench -trace).
	Tracer *obs.Tracer
}

// DefaultScale returns the quick configuration (≈1/500 of paper size).
func DefaultScale() Scale {
	return Scale{
		Warm:        100_000,
		Ops:         100_000,
		Threads:     []int{1, 8, 24, 48, 96},
		MainThreads: 48,
		ScanLen:     100,
		Seed:        1,
	}
}

func (s Scale) withDefaults() Scale {
	d := DefaultScale()
	if s.Warm == 0 {
		s.Warm = d.Warm
	}
	if s.Ops == 0 {
		s.Ops = d.Ops
	}
	if len(s.Threads) == 0 {
		s.Threads = d.Threads
	}
	if s.MainThreads == 0 {
		s.MainThreads = d.MainThreads
	}
	if s.ScanLen == 0 {
		s.ScanLen = d.ScanLen
	}
	if s.Seed == 0 {
		s.Seed = d.Seed
	}
	return s
}

// benchCacheLines scales the modeled CPU cache to the benchmark's
// dataset the way the paper's testbed relates L3 (36 MB) to its 1.6 GB
// datasets (~2%): at the default 100 k-key scale the working set is a
// few MB, so the cache models 256 KB of dirty lines. This is what makes
// the eADR experiment (Fig 16) behave: implicit evictions — not
// explicit flushes — carry dirty lines to media.
const benchCacheLines = 4096

// deviceBytes is the modeled per-socket device size for a run of keys
// keys (warm + measured) on threads threads: 256 MB from 40 000 keys up
// — DefaultScale and the check.sh gate scale, so every published
// figure and both perf baselines — and for any run wider than 8 threads
// (each thread holds 4 MB WAL chunks by default). Smaller runs get
// 32 MB, because zeroing two fresh 256 MB devices per (index,
// thread-count) cell was 83 % of a 5 000-key smoke run.
func deviceBytes(keys, threads int) int64 {
	if keys >= 40_000 || threads > 8 {
		return 256 << 20
	}
	return 32 << 20
}

// NewPool builds the standard benchmark platform for a run of that
// size (see deviceBytes): two sockets, four DIMMs each, crash tracking
// off (perf experiments never crash; the recovery experiment builds
// its own pool).
func NewPool(keys, threads int) *pmem.Pool {
	return pmem.NewPool(pmem.Config{
		Sockets:              2,
		DIMMsPerSocket:       4,
		DeviceBytes:          deviceBytes(keys, threads),
		CacheLines:           benchCacheLines,
		DisableCrashTracking: true,
	})
}

// Indexes returns the evaluation's index lineup (§5.1) as factories.
// CCL-BTree is always last so tables read like the paper's.
func Indexes() []index.Factory {
	return []index.Factory{
		fptree.Factory(),
		fastfair.Factory(),
		dptree.Factory(),
		utree.Factory(),
		lbtree.Factory(),
		pactree.Factory(),
		benchCCL(),
	}
}

// benchCCL is the paper-default CCL-BTree with the WAL chunk size
// scaled to the benchmark's dataset scale (the paper's 4 MB chunks at
// 50 M keys correspond to ~256 KB at the default 100 k scale; per-
// thread logs must not dwarf the scaled-down device).
func benchCCL() index.Factory {
	return cclidx.Factory("CCL-BTree", cclbtree.Config{ChunkBytes: 256 << 10})
}

// LogStructured returns the Table 3 lineup.
func LogStructured() []index.Factory {
	return []index.Factory{lsm.Factory(), flatstore.Factory(), benchCCL()}
}

// Spec describes one measured run.
type Spec struct {
	Threads int
	Warm    int
	Ops     int
	Mix     workload.Mix
	// Access builds the per-thread key stream for reads/updates/scans
	// over the loaded space. Nil = uniform.
	Access func(thread int) workload.Access
	// Keys, when set, is the explicit load key set (Fig 19 datasets);
	// otherwise keys are the scrambled integers 1..Warm.
	Keys []uint64
	// ValueBlobBytes > 0 stores values out-of-band at this size
	// through a shared arena and puts the 8 B pointer in the index
	// (§4.4 indirection, Fig 15c / Fig 18).
	ValueBlobBytes int
	// Latency records per-op latencies for percentile reporting.
	Latency bool
	Seed    int64
}

// Result is one run's measurements.
type Result struct {
	Ops       int
	ElapsedNS int64
	Stats     pmem.Stats
	// UserBytes is the payload volume of the measured phase's write
	// operations, the denominator of the amplification factors (the
	// harness computes it so every index is measured identically).
	UserBytes uint64
	// Latencies in ns, sorted, when Spec.Latency was set.
	Latencies []int64
	DRAMBytes int64
	PMBytes   int64
	// Profile is the index's contention/heat profile, captured after the
	// measured phase when the index exposes one (CCL-BTree with
	// Config.Metrics on); nil otherwise. Cumulative since index
	// creation, so it includes the load phase.
	Profile *obs.Profile
	// ShardBreakdown is the per-shard commit-lane attribution when the
	// phase ran through the serving tier (shards experiment); nil for
	// single-tree phases.
	ShardBreakdown []obs.ShardPhase
}

// profiled is the optional index capability the harness probes for: an
// index that can report the second obs tier (lock contention, span
// attribution, leaf heat).
type profiled interface {
	Profile() obs.Profile
}

// profileOf returns x's profile when x keeps one, nil otherwise.
func profileOf(x any) *obs.Profile {
	p, ok := x.(profiled)
	if !ok {
		return nil
	}
	pr := p.Profile()
	return &pr
}

// ampStats is the phase's stats with the harness-computed payload
// volume as denominator, so the pmem amplification helpers apply: the
// harness measures every index with the same UserBytes regardless of
// whether the index itself calls AddUserBytes.
func (r *Result) ampStats() pmem.Stats {
	s := r.Stats
	s.UserWriteBytes = r.UserBytes
	return s
}

// CLIAmp is bytes reaching the XPBuffer per user byte written.
func (r *Result) CLIAmp() float64 { return r.ampStats().CLIAmplification() }

// XBIAmp is bytes written to media per user byte written.
func (r *Result) XBIAmp() float64 { return r.ampStats().XBIAmplification() }

// Mops returns the simulated throughput in million ops/s.
func (r *Result) Mops() float64 {
	if r.ElapsedNS == 0 {
		return 0
	}
	return float64(r.Ops) * 1e3 / float64(r.ElapsedNS)
}

// Pct returns the p-th percentile latency in ns.
func (r *Result) Pct(p float64) int64 {
	if len(r.Latencies) == 0 {
		return 0
	}
	i := int(p / 100 * float64(len(r.Latencies)))
	if i >= len(r.Latencies) {
		i = len(r.Latencies) - 1
	}
	return r.Latencies[i]
}

// loadKey maps a load index to its key.
func loadKey(keys []uint64, i int) uint64 {
	if keys != nil {
		return keys[i%len(keys)]
	}
	return workload.Key(uint64(i + 1))
}

// blobArena writes fixed-size value blobs for the indirection runs.
type blobArena struct {
	mu    sync.Mutex
	alloc *pmalloc.Allocator
	cur   pmem.Addr
	off   int
}

func (a *blobArena) write(t *pmem.Thread, size int) (uint64, error) {
	const chunk = 1 << 20
	a.mu.Lock()
	need := (size + 7) &^ 7
	if a.cur.IsNil() || a.off+need > chunk {
		c, err := a.alloc.Alloc(t.Socket(), chunk)
		if err != nil {
			a.mu.Unlock()
			return 0, err
		}
		a.cur, a.off = c, 0
	}
	addr := a.cur.Add(int64(a.off))
	a.off += need
	a.mu.Unlock()
	// A blob is its length word, then the payload: recovery reads the
	// length to bound the blob.
	words := make([]uint64, need/8)
	for i := range words {
		words[i] = 0x5c5c5c5c5c5c5c5c
	}
	words[0] = uint64(need - 8)
	t.WriteRange(addr, words)
	t.Persist(addr, need)
	return 1<<63 | addr.Pack48(), nil
}

// Run loads the index and executes the measured phase, returning the
// aggregated result.
func Run(pool *pmem.Pool, idx index.Index, spec Spec) (*Result, error) {
	if spec.Threads < 1 {
		spec.Threads = 1
	}
	// Point the live observation endpoint (cclbench -http / cclstat
	// -attach) at the pool currently being measured; when the index can
	// profile itself, the live view carries the profile too.
	obs.SetLive(func() obs.Observation {
		o := obs.Observe(pool)
		o.Profile = profileOf(idx)
		return o
	})
	handles, clocks := spread(pool, spec.Threads, idx.NewHandle)
	var arena *blobArena
	if spec.ValueBlobBytes > 0 {
		arena = &blobArena{alloc: pmalloc.New(pool)}
	}

	// upsert writes key through h; its value is a fresh blob's pointer
	// when the spec stores values out of band.
	upsert := func(h index.Handle, key uint64) error {
		v := key + 1
		if arena != nil {
			var err error
			if v, err = arena.write(h.Thread(), spec.ValueBlobBytes); err != nil {
				return err
			}
		}
		return h.Upsert(key, v)
	}

	err := pmem.Parallel(spec.Threads, func(th int) error {
		for i := th; i < spec.Warm; i += spec.Threads {
			if err := upsert(handles[th], loadKey(spec.Keys, i)); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("bench load: %w", err)
	}

	perThread := max(spec.Ops/spec.Threads, 1)
	lat := make([][]int64, spec.Threads)
	writeOps := make([]int64, spec.Threads)
	res, err := measure(pool, clocks, func(th int) error {
		h := handles[th]
		t := h.Thread()
		rng := rand.New(rand.NewSource(spec.Seed*7919 + int64(th)))
		access := workload.Access(workload.Uniform{N: uint64(max(spec.Warm, 1))})
		if spec.Access != nil {
			access = spec.Access(th)
		}
		insertCursor := spec.Warm + th
		deleteCursor := th
		scanOut := make([]index.KV, max(spec.Mix.ScanLen, 1))
		if spec.Latency {
			lat[th] = make([]int64, 0, perThread)
		}
		// key draws the next read/update/scan key over the loaded space.
		key := func() uint64 {
			k := access.Next(rng)
			if spec.Keys != nil {
				k = spec.Keys[k%uint64(len(spec.Keys))]
			}
			return k
		}
		put := func(k uint64) error {
			writeOps[th]++
			return upsert(h, k)
		}
		for i := 0; i < perThread; i++ {
			before := t.Now()
			var err error
			switch spec.Mix.Pick(rng) {
			case workload.OpInsert:
				err = put(loadKey(spec.Keys, insertCursor))
				insertCursor += spec.Threads
			case workload.OpUpdate:
				err = put(key())
			case workload.OpRead:
				h.Lookup(key())
			case workload.OpScan:
				n := spec.Mix.ScanLen
				if n <= 0 {
					n = 100
				}
				h.Scan(key(), n, scanOut)
			case workload.OpDelete:
				err = h.Delete(loadKey(spec.Keys, deleteCursor))
				deleteCursor += spec.Threads
				writeOps[th]++
			}
			if err != nil {
				return err
			}
			if spec.Latency {
				lat[th] = append(lat[th], t.Now()-before)
			}
		}
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("bench run: %w", err)
	}

	res.Ops = perThread * spec.Threads
	opBytes := uint64(16)
	if spec.ValueBlobBytes > 0 {
		opBytes = uint64(8 + spec.ValueBlobBytes)
	}
	for _, w := range writeOps {
		res.UserBytes += uint64(w) * opBytes
	}
	if spec.Latency {
		for _, l := range lat {
			res.Latencies = append(res.Latencies, l...)
		}
		sort.Slice(res.Latencies, func(i, j int) bool { return res.Latencies[i] < res.Latencies[j] })
	}
	return res.finish(idx.Name(), spec, idx), nil
}

// spread builds n workers with newWorker, round-robin over the pool's
// sockets, and returns them with their modeled threads: the clocks a
// measured phase over them reads.
func spread[W interface{ Thread() *pmem.Thread }](pool *pmem.Pool, n int, newWorker func(socket int) W) ([]W, []*pmem.Thread) {
	ws := make([]W, n)
	clocks := make([]*pmem.Thread, n)
	for i := range ws {
		ws[i] = newWorker(i % pool.Sockets())
		clocks[i] = ws[i].Thread()
	}
	return ws, clocks
}

// measure runs body as a measured phase, one goroutine per clock
// through pmem.Parallel. The Result carries the slowest thread's
// virtual-clock advance over the phase and the pool's counter delta
// (see counted).
func measure(pool *pmem.Pool, clocks []*pmem.Thread, body func(th int) error) (*Result, error) {
	start := make([]int64, len(clocks))
	for i, t := range clocks {
		start[i] = t.Now()
	}
	res, err := counted(pool, func() error { return pmem.Parallel(len(clocks), body) })
	if err != nil {
		return nil, err
	}
	for i, t := range clocks {
		res.ElapsedNS = max(res.ElapsedNS, t.Now()-start[i])
	}
	return res, nil
}

// counted runs fn and returns a Result holding the pool's counter
// delta across it, taken after draining the XPBuffers so the media
// counters are complete.
func counted(pool *pmem.Pool, fn func() error) (*Result, error) {
	base := pool.Stats()
	if err := fn(); err != nil {
		return nil, err
	}
	pool.DrainXPBuffers()
	return &Result{Stats: pool.Stats().Sub(base)}, nil
}

// finish completes a measured Result with the footprint of what it
// measured, and its profile when it keeps one, then appends it to the
// active report under name.
func (r *Result) finish(name string, spec Spec, of interface{ MemoryUsage() (int64, int64) }) *Result {
	r.DRAMBytes, r.PMBytes = of.MemoryUsage()
	r.Profile = profileOf(of)
	recordPhase(name, spec, r)
	return r
}

// Table is a printable experiment result.
type Table struct {
	Title  string
	Header []string
	Rows   [][]string
	Note   string
}

// Fprint renders the table in aligned columns.
func (t *Table) Fprint(w io.Writer) {
	fmt.Fprintf(w, "## %s\n", t.Title)
	if t.Note != "" {
		fmt.Fprintf(w, "   %s\n", t.Note)
	}
	widths := make([]int, len(t.Header))
	for i, h := range t.Header {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = fmt.Sprintf("%-*s", widths[i], c)
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, strings.TrimRight(strings.Join(parts, "  "), " "))
	}
	line(t.Header)
	sep := make([]string, len(t.Header))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	fmt.Fprintln(w)
}

// f2 and f1 format floats for table cells.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }
func f1(v float64) string { return fmt.Sprintf("%.1f", v) }
