package pmem

import (
	"encoding/binary"
	"fmt"
	"io"
	"sync"
	"sync/atomic"
)

// Pool is a set of PM devices, one per socket, sharing hardware counters
// and a cost model. It is safe for concurrent use through per-goroutine
// Thread handles.
type Pool struct {
	cfg  Config
	devs []*device
	ctr  counters

	// devHook is the installed device tracer (SetDeviceTracer), nil
	// when tracing is off. Kept as an atomic pointer so the evict paths
	// pay one pointer load when uninstalled.
	devHook atomic.Pointer[DeviceTracer]

	auxMu sync.Mutex
	aux   map[string]any

	faultState

	// Strict-mode bookkeeping (see strict.go): live threads to audit at
	// Close, declared-volatile regions exempt from the dirty-line check.
	strictMu      sync.Mutex
	strictThreads []*Thread
	volatiles     []volRange
	closed        bool
}

// Aux returns the pool-scoped singleton registered under key, creating
// it with make on first use. The PM allocator uses this so that every
// component allocating on one pool (an index, its logs, a benchmark's
// blob arena) shares a single bump pointer and free list — two
// independent allocators on one pool would hand out overlapping
// regions.
func (p *Pool) Aux(key string, make func() any) any {
	p.auxMu.Lock()
	defer p.auxMu.Unlock()
	if p.aux == nil {
		p.aux = map[string]any{}
	}
	if v, ok := p.aux[key]; ok {
		return v
	}
	v := make()
	p.aux[key] = v
	return v
}

// NewPool builds a pool from cfg (zero fields take defaults).
func NewPool(cfg Config) *Pool {
	cfg = cfg.withDefaults()
	p := &Pool{cfg: cfg, devs: make([]*device, cfg.Sockets)}
	for i := range p.devs {
		p.devs[i] = newDevice(i, &cfg)
	}
	return p
}

// Config returns the (defaulted) configuration the pool runs with.
func (p *Pool) Config() Config { return p.cfg }

// Sockets returns the number of NUMA nodes.
func (p *Pool) Sockets() int { return len(p.devs) }

// DeviceBytes returns the capacity of each socket's device.
func (p *Pool) DeviceBytes() int64 { return p.cfg.DeviceBytes }

// ValidRange reports whether [a, a+n) lies entirely inside one socket's
// device. Recovery code applies it to every address read back from
// persistent (possibly corrupt) state before dereferencing — an
// out-of-range access would otherwise panic rather than surface as a
// typed corruption error.
func (p *Pool) ValidRange(a Addr, n int64) bool {
	if a.IsNil() || n < 0 {
		return false
	}
	if a.Socket() >= len(p.devs) { // Socket() is non-negative by construction
		return false
	}
	off := a.Offset()
	return off < uint64(p.cfg.DeviceBytes) && uint64(n) <= uint64(p.cfg.DeviceBytes)-off
}

// Stats snapshots the hardware counters (since pool creation or the
// last ResetStats). See ResetStats for the concurrency contract.
func (p *Pool) Stats() Stats { return p.ctr.snapshot() }

// ResetStats rebaselines the hardware counters (e.g. after a warm-up
// phase): subsequent Stats calls report only traffic accumulated after
// the reset, including the per-DIMM XPBuffer tallies (hits, misses,
// per-scope media attribution), which share the same counter set and
// baseline.
//
// Race contract: the live counters are monotone and never zeroed;
// ResetStats atomically captures them as a new baseline that Stats
// subtracts. A Stats call concurrent with ResetStats observes each
// counter against either the old or the new baseline — individual
// values never tear or underflow (deltas clamp at zero) — but
// cross-counter identities (e.g. per-scope buckets summing exactly to
// MediaWriteBytes) are only guaranteed when no writers or resets are
// in flight, i.e. at quiescence after DrainXPBuffers.
func (p *Pool) ResetStats() { p.ctr.reset() }

// AddUserBytes declares n bytes of application payload written, the
// denominator of the amplification metrics.
func (p *Pool) AddUserBytes(n uint64) { p.ctr.cur.userWriteBytes.Add(n) }

// DeviceEvent identifies a device-level occurrence reported through the
// tracer hook installed with SetDeviceTracer.
type DeviceEvent uint8

const (
	// DevCacheEvict: the modeled CPU cache wrote back a dirty line the
	// program never flushed (capacity eviction).
	DevCacheEvict DeviceEvent = iota
	// DevXPBufEvict: an XPBuffer evicted a dirty XPLine to media (the
	// write amplification event the paper is about).
	DevXPBufEvict
	// DevCrash: Pool.Crash rolled volatile state back to the persistent
	// image. The line argument is 0.
	DevCrash
)

// DeviceTracer receives device-level events: the event kind, the socket
// it occurred on, and the XPLine index involved. Callbacks run on the
// accessing thread's goroutine, outside internal locks, but still on
// the hot path: implementations must be fast, must not block, and must
// not call back into the pool.
type DeviceTracer func(ev DeviceEvent, socket int, xpline uint64)

// SetDeviceTracer installs f as the device-event hook (nil uninstalls).
// The device model cannot depend on the observability layer, so this is
// the seam internal/obs plugs its ring-buffer tracer into.
func (p *Pool) SetDeviceTracer(f DeviceTracer) {
	if f == nil {
		p.devHook.Store(nil)
		return
	}
	p.devHook.Store(&f)
}

// PowerFailure is the panic value thrown when an armed fault trigger
// fires (FailWhen). Test harnesses recover it, call Crash, and
// exercise recovery from a mid-operation failure point.
type PowerFailure struct{}

func (PowerFailure) Error() string { return "pmem: simulated power failure" }

// Crash simulates a power failure under the configured mode: in ADR,
// all stores not yet flushed+fenced are rolled back; in eADR everything
// survives. Existing Threads must be discarded afterwards (their pending
// flush sets are meaningless post-restart). The restart finds every DIMM
// arbiter idle: the media work queued before the failure is not charged
// to the threads that run after it, whose clocks start at zero (the
// frontier of idle media).
func (p *Pool) Crash() {
	if p.cfg.Mode == ADR && p.cfg.DisableCrashTracking {
		panic("pmem: Crash called with DisableCrashTracking set")
	}
	for _, d := range p.devs {
		d.crash()
	}
	if h := p.devHook.Load(); h != nil {
		(*h)(DevCrash, 0, 0)
	}
	if p.cfg.StrictPersist {
		// Threads do not survive a power failure: their pending flush
		// sets are meaningless post-restart. Mark them released so any
		// further use (or a later Close auditing them) panics loudly
		// instead of reporting phantom pending flushes.
		p.strictMu.Lock()
		for _, t := range p.strictThreads {
			t.pending = nil
			t.released = true
		}
		p.strictThreads = nil
		p.strictMu.Unlock()
	}
}

// DrainXPBuffers forces every buffered XPLine to media so end-of-run
// media counters are complete. Content is unaffected.
func (p *Pool) DrainXPBuffers() {
	for _, d := range p.devs {
		d.drain(p)
	}
}

// NewThread creates an access handle bound to a socket (its "local"
// NUMA node). A Thread must be used by one goroutine at a time. Its
// clock starts at the pool's work frontier: a thread created
// after a preload starts where the media stand, instead of at zero
// behind all the work queued so far, which its first access would pay
// as backpressure.
func (p *Pool) NewThread(socket int) *Thread {
	if socket < 0 || socket >= len(p.devs) {
		panic(fmt.Sprintf("pmem: socket %d out of range", socket))
	}
	t := &Thread{pool: p, socket: socket, vt: p.frontier(), strict: p.cfg.StrictPersist}
	if t.strict {
		p.strictMu.Lock()
		p.strictThreads = append(p.strictThreads, t)
		p.strictMu.Unlock()
	}
	return t
}

// frontier is the pool's work frontier: the largest work sum of any
// DIMM on any socket, the virtual time by which every media access
// issued so far has been served. It is 0 on a fresh pool and right after
// Crash.
func (p *Pool) frontier() int64 {
	var f int64
	for _, d := range p.devs {
		for _, dm := range d.dimms {
			f = max(f, dm.busyUntil.Load())
		}
	}
	return f
}

// persistentWord returns the crash-consistent value of word idx on
// device d: the pre-image if the containing line is dirty, else the
// current value.
func (d *device) persistentWord(idx uint64) uint64 {
	line := idx / wordsPerLine
	if d.trackPre && d.lineDirty(line) {
		sh := d.shardFor(line)
		sh.mu.Lock()
		e, ok := sh.lines[line] // a copy: safe to read after the unlock
		sh.mu.Unlock()
		if ok {
			return e.pre[idx%wordsPerLine]
		}
	}
	return atomic.LoadUint64(&d.words[idx])
}

// SavePersistent serializes the persistent (crash-consistent) image of
// one socket's device. Use with LoadPersistent to carry a pool across
// process restarts, standing in for a DAX-mapped pool file.
func (p *Pool) SavePersistent(socket int, w io.Writer) error {
	d := p.devs[socket]
	var hdr [16]byte
	binary.LittleEndian.PutUint64(hdr[0:], uint64(len(d.words)))
	binary.LittleEndian.PutUint64(hdr[8:], uint64(p.cfg.Mode))
	if _, err := w.Write(hdr[:]); err != nil {
		return fmt.Errorf("pmem: save header: %w", err)
	}
	buf := make([]byte, 8<<10)
	for i := 0; i < len(d.words); {
		n := 0
		for ; n < len(buf) && i < len(d.words); n += 8 {
			binary.LittleEndian.PutUint64(buf[n:], d.persistentWord(uint64(i)))
			i++
		}
		if _, err := w.Write(buf[:n]); err != nil {
			return fmt.Errorf("pmem: save body: %w", err)
		}
	}
	return nil
}

// LoadPersistent restores a device image saved by SavePersistent into
// socket's device. The pool must have been created with at least the
// saved capacity.
func (p *Pool) LoadPersistent(socket int, r io.Reader) error {
	d := p.devs[socket]
	var hdr [16]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return fmt.Errorf("pmem: load header: %w", err)
	}
	n := binary.LittleEndian.Uint64(hdr[0:])
	if n > uint64(len(d.words)) {
		return fmt.Errorf("pmem: image has %d words, device holds %d", n, len(d.words))
	}
	buf := make([]byte, 8<<10)
	for i := uint64(0); i < n; {
		want := len(buf)
		if rem := int(n-i) * 8; rem < want {
			want = rem
		}
		if _, err := io.ReadFull(r, buf[:want]); err != nil {
			return fmt.Errorf("pmem: load body: %w", err)
		}
		for off := 0; off < want; off += 8 {
			atomic.StoreUint64(&d.words[i], binary.LittleEndian.Uint64(buf[off:]))
			i++
		}
	}
	return nil
}
