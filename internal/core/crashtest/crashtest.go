// Package crashtest is the engine's crash suite, run on every
// directory of core's engine (core.Directory): the fixed-key tree, the
// var-KV tree and the hash table. Each exported property takes the rows
// it runs on and drives them through the engine's exported API only: a
// directory is created with core.NewIndex and recovered with
// core.OpenIndex, written through Worker.Write and Worker.ApplyBatch,
// and read back key by key (Worker.Lookup, Worker.LookupVar).
//
// Power fails at a chosen flush (pmem.Pool.FailWhen); the lines flushed
// but not fenced at the failure persist fully, not at all, or as a torn
// prefix (pmem.Pool.TearPending); the pool crashes, and every
// acknowledged write must read back after recovery. Every sweep fails
// when the power failed at none of its points.
package crashtest

import (
	"bytes"
	"flag"
	"fmt"
	"math/rand"
	"strconv"
	"testing"

	"cclbtree/internal/core"
	"cclbtree/internal/pmem"
)

var full = flag.Bool("crashtest.full", false,
	"sweep Light rows at the crash-point caps of the fixed-key tree")

// Row is one directory the suite runs on.
type Row struct {
	// Name names the row's subtests.
	Name string
	// Opts carries the engine options the directory needs (VarKV);
	// each property sets its own chunk size and GC policy over them.
	Opts core.Options
	// Dir builds the directory for each New and Open (nil: the tree's
	// inner index).
	Dir func() core.Directory
	// Light rows sweep a strided sample of each property's crash
	// points, in every configuration, unless -crashtest.full asks for
	// the caps the fixed-key tree runs at.
	Light bool
}

// newPool is the suite's strict two-socket pool.
func newPool(mode pmem.Mode, deviceBytes int64) *pmem.Pool {
	return pmem.NewPool(pmem.Config{Sockets: 2, DIMMsPerSocket: 2, DeviceBytes: deviceBytes,
		XPBufferLines: 16, CacheLines: 1 << 13, Mode: mode, StrictPersist: true})
}

func (r Row) dir() core.Directory {
	if r.Dir == nil {
		return nil
	}
	return r.Dir()
}

// options are r's engine options with a property's chunk size and GC
// policy.
func (r Row) options(chunkBytes int, gc core.GCPolicy) core.Options {
	o := r.Opts
	o.ChunkBytes, o.GC = chunkBytes, gc
	return o
}

func (r Row) create(t *testing.T, pool *pmem.Pool, opts core.Options) (*core.Tree, *core.Worker) {
	t.Helper()
	tr, err := core.NewIndex(pool, opts, r.dir())
	if err != nil {
		t.Fatal(err)
	}
	return tr, tr.NewWorker(0)
}

func (r Row) open(t *testing.T, pool *pmem.Pool, opts core.Options, threads int) (*core.Tree, *core.RecoveryStats) {
	t.Helper()
	tr, st, err := core.OpenIndex(pool, opts, threads, r.dir())
	if err != nil {
		t.Fatalf("recovery: %v", err)
	}
	return tr, st
}

// op is the write of value v to key k in r's key form; v = 0 deletes.
func (r Row) op(k, v uint64) core.BatchOp {
	if !r.Opts.VarKV {
		return core.BatchOp{Key: k, Value: v, Delete: v == 0}
	}
	op := core.BatchOp{KeyBytes: fmt.Appendf(nil, "key-%06d", k), Delete: v == 0}
	if v != 0 {
		op.ValueBytes = fmt.Appendf(nil, "value-%d", v)
	}
	return op
}

// read is key k's value on w, as op wrote it.
func (r Row) read(w *core.Worker, k uint64) (uint64, bool) {
	if !r.Opts.VarKV {
		return w.Lookup(k)
	}
	b, ok := w.LookupVar(fmt.Appendf(nil, "key-%06d", k))
	if !ok {
		return 0, false
	}
	v, _ := strconv.ParseUint(string(bytes.TrimPrefix(b, []byte("value-"))), 10, 64)
	return v, true // garbage reads 0, a value no write stores
}

func (r Row) put(t *testing.T, w *core.Worker, k, v uint64) {
	t.Helper()
	op := r.op(k, v)
	if err := w.Write(&op, false); err != nil {
		t.Fatal(err)
	}
}

// lost reports the first of keys 1..n whose value on tr is not want's,
// present or absent ("" when none).
func (r Row) lost(tr *core.Tree, n int, want map[uint64]uint64) string {
	w := tr.NewWorker(0)
	for k := uint64(1); k <= uint64(n); k++ {
		v, ok := r.read(w, k)
		if wv, wok := want[k]; ok != wok || v != wv {
			return fmt.Sprintf("key %d reads %d,%v, want %d,%v", k, v, ok, wv, wok)
		}
	}
	return ""
}

// sweep is the one crash-point driver: it runs at(k) on flush points
// k = 1, 1+stride, … ≤ total, where the stride spreads at most limit
// points over the flushes (0: every flush). limit is the property's
// cap, short its -short cap and light a Light row's (0: none) unless
// -crashtest.full. at reports whether the power failed at k and what
// the recovered directory lost ("" when nothing). sweep fails when the
// power failed at no point, or when a point lost a write.
func (r Row) sweep(t *testing.T, total int64, limit, short, light int, at func(k int64) (died bool, lost string)) {
	t.Helper()
	if testing.Short() {
		limit = short
	}
	if r.Light && !*full && light > 0 && (limit == 0 || light < limit) {
		limit = light
	}
	stride := int64(1)
	if limit > 0 && total > int64(limit) {
		stride = total / int64(limit)
	}
	points, died, lost, first := 0, 0, 0, ""
	for k := int64(1); k <= total; k += stride {
		points++
		d, msg := at(k)
		if d {
			died++
		}
		if msg != "" {
			if lost++; lost == 1 {
				first = fmt.Sprintf("flush %d: %s", k, msg)
			}
		}
	}
	if died == 0 {
		t.Fatalf("power failed at none of %d points over %d flushes", points, total)
	}
	if lost > 0 {
		t.Errorf("%d of %d crash points lost or invented writes; first: %s", lost, points, first)
	}
}

// armAt arms a power failure at the k-th flush from now.
func armAt(pool *pmem.Pool, k int64) {
	at := pool.FlushCalls() + k
	pool.FailWhen(func(fp pmem.FaultPoint) bool { return fp.Seq == at })
}

// crash disarms the fault, tears the lines pending at the failure if it
// fired (seeded by the point) and crashes the pool. It reports whether
// the fault fired.
func crash(pool *pmem.Pool, point int64) bool {
	died := pool.FaultFired()
	pool.FailWhen(nil)
	if died {
		pool.TearPending(point)
	}
	pool.Crash()
	return died
}

const (
	// imageKeys and imageWrites size the recovery image: each key is
	// written about three times, so most log records are superseded.
	imageKeys, imageWrites = 1000, 3000
	imageChunk             = 4 << 10
	imageDevice            = 1 << 20
)

// Image is a crashed directory's persistent image and the contents its
// acknowledged writes left on keys 1..imageKeys.
type Image struct {
	row   Row
	media [][]byte
	want  map[uint64]uint64
}

// NewImage writes imageWrites random puts and deletes (one in six) over
// imageKeys keys to a fresh directory of r's, with GC off and 4 KB log
// chunks, so that most chunks hold only superseded records and recovery
// releases them. With gc one locality-aware round runs halfway through
// the writes, and the image holds the log that round left. prep, when
// not nil, edits the directory before the crash.
func NewImage(t *testing.T, r Row, gc bool, prep func(*testing.T, *core.Tree)) *Image {
	t.Helper()
	pool := newPool(pmem.ADR, imageDevice)
	opts := r.options(imageChunk, core.GCOff)
	if gc {
		// No load reaches the trigger: only the round below runs.
		opts.GC, opts.THlog = core.GCLocalityAware, 1e9
	}
	tr, w := r.create(t, pool, opts)
	want := map[uint64]uint64{}
	rng := rand.New(rand.NewSource(11))
	for i := range imageWrites {
		if gc && i == imageWrites/2 {
			tr.ForceGC()
		}
		k, v := uint64(rng.Intn(imageKeys)+1), uint64(rng.Intn(1<<30)+1)
		if rng.Intn(6) == 0 {
			v = 0
			delete(want, k)
		} else {
			want[k] = v
		}
		r.put(t, w, k, v)
	}
	tr.Freeze()
	if prep != nil {
		prep(t, tr)
	}
	pool.Crash()
	img := &Image{row: r, want: want}
	for s := range pool.Sockets() {
		var b bytes.Buffer
		if err := pool.SavePersistent(s, &b); err != nil {
			t.Fatal(err)
		}
		img.media = append(img.media, b.Bytes())
	}
	return img
}

// load loads the image into a fresh pool.
func (img *Image) load(t *testing.T) *pmem.Pool {
	t.Helper()
	pool := newPool(pmem.ADR, imageDevice)
	for s, b := range img.media {
		if err := pool.LoadPersistent(s, bytes.NewReader(b)); err != nil {
			t.Fatal(err)
		}
	}
	return pool
}

// open recovers pool under policy gc.
func (img *Image) open(t *testing.T, pool *pmem.Pool, gc core.GCPolicy, threads int) (*core.Tree, *core.RecoveryStats) {
	t.Helper()
	return img.row.open(t, pool, img.row.options(imageChunk, gc), threads)
}

// lost reports the first key tr does not read as the image's writes
// left it ("" when none).
func (img *Image) lost(tr *core.Tree) string { return img.row.lost(tr, imageKeys, img.want) }
