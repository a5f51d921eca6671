package pmem

// Hardware constants of the modeled device. These mirror Intel Optane
// DCPMM and are fixed: the paper's entire problem statement is the
// mismatch between the two granularities.
const (
	// CachelineSize is the CPU cacheline size in bytes, the granularity
	// at which data moves from the CPU cache to the XPBuffer.
	CachelineSize = 64
	// XPLineSize is the media access granularity in bytes: the XPBuffer
	// reads and writes the 3D-XPoint media in 256 B units.
	XPLineSize = 256
	// WordSize is the access granularity of the Load/Store API. 8 B
	// stores are failure-atomic on real PM and every structure in this
	// repository is word-aligned.
	WordSize = 8

	wordsPerLine   = CachelineSize / WordSize
	wordsPerXPLine = XPLineSize / WordSize
	linesPerXPLine = XPLineSize / CachelineSize
)

// Mode selects the persistence domain of the platform.
type Mode int

const (
	// ADR: the write pending queues are power-fail protected but CPU
	// caches are not. Programs must clwb+sfence explicitly.
	ADR Mode = iota
	// EADR: CPU caches are inside the persistence domain. Stores are
	// durable once globally visible; flushes are unnecessary (and the
	// model makes them free). Dirty lines still reach the media through
	// cache evictions, which is what makes eADR interesting (Fig 16).
	EADR
)

// Scope attributes PM traffic to the program component that caused it
// — "which code path wrote these bytes" — so experiments can split
// write amplification by cause (Fig 13b) and the observability layer
// (internal/obs, cclstat) can show it per site. It is the device
// model's only attribution axis. Threads carry a current scope set with
// PushScope/PopScope; every byte arriving at the XPBuffer, and every
// XPLine eventually written back to media, is charged to the scope of
// the thread that dirtied it.
//
// Nesting contract: the innermost component wins, with two documented
// refinements implemented by the components themselves (not here):
// WAL appends always attribute to ScopeWAL regardless of the caller's
// scope, and the leaf-flush/split paths keep an active task scope
// (ScopeGC, ScopeRecovery) instead of overriding it, so "gc" traffic
// stays visibly gc-caused.
type Scope uint8

const (
	// ScopeNone is the default: foreground application traffic with no
	// finer attribution ("data" in displays).
	ScopeNone Scope = iota
	// ScopeLeafBuf marks buffer-node batch flushes into PM leaves.
	ScopeLeafBuf
	// ScopeWAL marks write-ahead-log appends.
	ScopeWAL
	// ScopeGC marks garbage-collection traffic (naive-GC leaf flushes,
	// restamps); locality-aware GC's I-log copies are WAL appends and
	// attribute to ScopeWAL by contract.
	ScopeGC
	// ScopeSplit marks structural operations: leaf splits and merges.
	ScopeSplit
	// ScopeRecovery marks post-crash recovery scans and replays.
	ScopeRecovery
	// ScopeMeta marks superblock, chunk-directory and allocator
	// metadata writes.
	ScopeMeta
	// NumScopes is the number of attribution buckets.
	NumScopes
)

func (s Scope) String() string {
	switch s {
	case ScopeNone:
		return "data"
	case ScopeLeafBuf:
		return "leafbuf"
	case ScopeWAL:
		return "wal"
	case ScopeGC:
		return "gc"
	case ScopeSplit:
		return "split"
	case ScopeRecovery:
		return "recovery"
	case ScopeMeta:
		return "meta"
	}
	return "unknown"
}

// ScopeNames returns the display names of all scopes, indexed by Scope.
func ScopeNames() [NumScopes]string {
	var out [NumScopes]string
	for i := range out {
		out[i] = Scope(i).String()
	}
	return out
}

// CostModel holds the virtual-time parameters, all in nanoseconds. The
// defaults are calibrated against published Optane 200 characterization
// numbers; what matters for reproduction is their relative order
// (media service ≫ flush issue cost, remote > local).
type CostModel struct {
	// DRAMAccess is charged for a word access to DRAM-resident
	// structures (indexes call Thread.Advance with multiples of this).
	DRAMAccess int64
	// PMReadHit is the load latency when the XPLine is resident in the
	// XPBuffer or the line is dirty in the CPU cache.
	PMReadHit int64
	// PMReadMiss is the load latency when the media must be accessed.
	PMReadMiss int64
	// FlushIssue is the CPU-side cost of one clwb.
	FlushIssue int64
	// FenceIssue is the CPU-side cost of one sfence.
	FenceIssue int64
	// MediaWrite is the DIMM occupancy of one 256 B XPLine write-back
	// (256 ns ≈ 1 GB/s of random-write bandwidth per DIMM).
	MediaWrite int64
	// MediaRead is the DIMM occupancy of one 256 B XPLine fill.
	MediaRead int64
	// RemoteAccess is the extra latency for crossing the socket
	// interconnect (NUMA).
	RemoteAccess int64
	// MaxQueueLead bounds how far the media write queue may run ahead
	// of a thread before flushes start to stall it (WPQ backpressure).
	MaxQueueLead int64
}

// DefaultCostModel returns the calibrated cost model.
func DefaultCostModel() CostModel {
	return CostModel{
		DRAMAccess:   4,
		PMReadHit:    170,
		PMReadMiss:   320,
		FlushIssue:   80,
		FenceIssue:   300, // persist barrier: sfence waits for WPQ acceptance
		MediaWrite:   256,
		MediaRead:    130,
		RemoteAccess: 70,
		MaxQueueLead: 4096,
	}
}

// Config describes a pool of PM devices.
type Config struct {
	// Sockets is the number of NUMA nodes, each with its own PM device.
	Sockets int
	// DIMMsPerSocket shards each device into independently buffered and
	// independently bandwidth-limited DIMMs, interleaved by XPLine
	// groups like real platforms.
	DIMMsPerSocket int
	// DeviceBytes is the PM capacity per socket.
	DeviceBytes int64
	// XPBufferLines is the write-combining buffer capacity per DIMM in
	// XPLines (64 × 256 B = 16 KB, the paper's figure).
	XPBufferLines int
	// CacheLines is the modeled CPU cache capacity in dirty cachelines;
	// beyond it the cache evicts (write-back) without program control.
	CacheLines int
	// Mode selects ADR or eADR.
	Mode Mode
	// Cost is the virtual-time model.
	Cost CostModel
	// DisableCrashTracking skips pre-image bookkeeping for workloads
	// that never call Crash. Persistence semantics are unchanged for
	// the program; only Crash becomes unavailable.
	DisableCrashTracking bool
	// StrictPersist arms the runtime discipline checker (see strict.go):
	// panic-with-context on cross-goroutine Thread use, unaligned
	// Load/Store addresses, Thread.Release with pending flushes, and
	// Pool.Close with dirty lines outside declared-volatile regions.
	// Meant for test suites; off by default to keep hot paths clean.
	StrictPersist bool
}

// DefaultConfig returns a two-socket, four-DIMMs-per-socket platform
// mirroring the paper's testbed shape at laptop-friendly capacity.
func DefaultConfig() Config {
	return Config{
		Sockets:        2,
		DIMMsPerSocket: 4,
		DeviceBytes:    256 << 20,
		XPBufferLines:  64,
		CacheLines:     1 << 15, // 2 MB of dirty lines
		Mode:           ADR,
		Cost:           DefaultCostModel(),
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.Sockets <= 0 {
		c.Sockets = d.Sockets
	}
	if c.DIMMsPerSocket <= 0 {
		c.DIMMsPerSocket = d.DIMMsPerSocket
	}
	if c.DeviceBytes <= 0 {
		c.DeviceBytes = d.DeviceBytes
	}
	if c.XPBufferLines <= 0 {
		c.XPBufferLines = d.XPBufferLines
	}
	if c.CacheLines <= 0 {
		c.CacheLines = d.CacheLines
	}
	if c.Cost == (CostModel{}) {
		c.Cost = d.Cost
	}
	// Round capacity to whole XPLines.
	c.DeviceBytes -= c.DeviceBytes % XPLineSize
	return c
}
