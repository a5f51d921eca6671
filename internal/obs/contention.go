package obs

import (
	"sync/atomic"
	"time"
)

// LockClass names one of the concurrency layer's declared locks. The
// classes' acquisition order is internal/core's (lockRank); obs keeps
// only the names it prints.
type LockClass uint8

// The instrumented lock classes, outermost first.
const (
	LockSTW      LockClass = iota // Tree.stw (naive-GC stop-the-world)
	LockWorkers                   // Tree.workersMu (worker registry)
	LockGC                        // Tree.gcMu (GC round rendezvous)
	LockInner                     // innerTree.mu (DRAM routing directory)
	LockChunkDir                  // chunkDir.mu (persistent chunk directory)
	NumLockClasses
)

var lockClassNames = [NumLockClasses]string{
	"stw", "workersMu", "gcMu", "inner.mu", "chunkdir.mu",
}

func (c LockClass) String() string {
	if int(c) < len(lockClassNames) {
		return lockClassNames[c]
	}
	return "unknown"
}

// Sampling: every acquisition is counted (one atomic add); one in
// 2^lockSampleShift is timed — wait from just before the blocking call
// to just after it, hold from acquisition to just after the unlock.
// Lock waits are host phenomena (mutex waits do not advance the
// virtual clock), so both histograms are in wall-clock nanoseconds,
// unlike the span segments which partition virtual time.
const lockSampleShift = 6 // 1 in 64

// contendedWaitNS classifies a sampled wait as contended: an
// uncontended futex round-trip sits well under a microsecond, so a
// sampled wait at or above it means the lock was actually held.
const contendedWaitNS = 1000

// profEpoch anchors the profiler's monotonic clock; time.Since reads
// the monotonic reading without allocating.
var profEpoch = time.Now()

func nowNS() int64 { return int64(time.Since(profEpoch)) }

// lockShard is one class's counters. The padding keeps hot neighbor
// classes off each other's cachelines.
type lockShard struct {
	acquisitions atomic.Uint64
	contended    atomic.Uint64
	wait         histShard
	hold         histShard
	_            [48]byte
}

// LockProfiler records classed, sampled lock wait/hold times and exact
// acquisition counts. All methods are nil-safe and allocation-free; on
// the unsampled fast path an acquisition costs one atomic add.
type LockProfiler struct {
	classes [NumLockClasses]lockShard
}

// NewLockProfiler returns an empty profiler.
func NewLockProfiler() *LockProfiler { return &LockProfiler{} }

// LockToken carries a sampled acquisition's timing state between the
// profiler calls bracketing a lock site. The zero token means "not
// sampled" and makes every subsequent call a no-op, so call sites need
// no sampling branch of their own.
type LockToken struct {
	t0 int64
}

// Pre counts one acquisition of c and opens a wait-time sample for one
// in 2^lockSampleShift of them. Call immediately before Lock/RLock,
// Acquired right after it and Released right after the unlock:
//
//	tok := p.Pre(c)
//	mu.Lock()
//	tok = p.Acquired(c, tok)
//	... critical section ...
//	mu.Unlock()
//	p.Released(c, tok)
func (p *LockProfiler) Pre(c LockClass) LockToken {
	if p == nil {
		return LockToken{}
	}
	if p.classes[c].acquisitions.Add(1)&(1<<lockSampleShift-1) != 0 {
		return LockToken{}
	}
	return LockToken{t0: nowNS()}
}

// Acquired closes the wait-time sample and opens the hold-time sample.
// Call immediately after the lock call; the returned token feeds
// Released.
func (p *LockProfiler) Acquired(c LockClass, tok LockToken) LockToken {
	if p == nil || tok.t0 == 0 {
		return LockToken{}
	}
	now := nowNS()
	wait := now - tok.t0
	if wait < 0 {
		wait = 0
	}
	sh := &p.classes[c]
	sh.wait.observe(uint64(wait))
	if wait >= contendedWaitNS {
		sh.contended.Add(1)
	}
	return LockToken{t0: now}
}

// Released closes the hold-time sample. Call right after the unlock,
// so the tail of the critical section is included.
func (p *LockProfiler) Released(c LockClass, tok LockToken) {
	if p == nil || tok.t0 == 0 {
		return
	}
	d := nowNS() - tok.t0
	if d < 0 {
		d = 0
	}
	p.classes[c].hold.observe(uint64(d))
}

// LockStat is the exported snapshot of one lock class. Acquisitions is
// exact; the wait/hold quantiles come from the 1-in-2^lockSampleShift
// sample, and Contended counts sampled waits ≥ 1 µs (a sampled lower
// bound on contention events, not an exact count).
type LockStat struct {
	Class        string `json:"class"`
	Acquisitions uint64 `json:"acquisitions"`
	Contended    uint64 `json:"contended,omitempty"`
	WaitSamples  uint64 `json:"wait_samples,omitempty"`
	WaitP50NS    uint64 `json:"wait_p50_ns,omitempty"`
	WaitP99NS    uint64 `json:"wait_p99_ns,omitempty"`
	WaitP999NS   uint64 `json:"wait_p999_ns,omitempty"`
	WaitMaxNS    uint64 `json:"wait_max_ns,omitempty"`
	HoldP50NS    uint64 `json:"hold_p50_ns,omitempty"`
	HoldP99NS    uint64 `json:"hold_p99_ns,omitempty"`
	HoldP999NS   uint64 `json:"hold_p999_ns,omitempty"`
	HoldMaxNS    uint64 `json:"hold_max_ns,omitempty"`
}

// Snapshot returns the classes with at least one acquisition, in
// declaration (outermost-first) order. Safe while recording continues;
// like Metrics.Snapshot the result is not a consistent cut.
func (p *LockProfiler) Snapshot() []LockStat {
	if p == nil {
		return nil
	}
	var out []LockStat
	for c := LockClass(0); c < NumLockClasses; c++ {
		sh := &p.classes[c]
		acq := sh.acquisitions.Load()
		if acq == 0 {
			continue
		}
		wait := sh.wait.snapshot(lockClassNames[c] + "_wait")
		hold := sh.hold.snapshot(lockClassNames[c] + "_hold")
		out = append(out, LockStat{
			Class:        lockClassNames[c],
			Acquisitions: acq,
			Contended:    sh.contended.Load(),
			WaitSamples:  wait.Count,
			WaitP50NS:    wait.P50(),
			WaitP99NS:    wait.P99(),
			WaitP999NS:   wait.P999(),
			WaitMaxNS:    wait.Max,
			HoldP50NS:    hold.P50(),
			HoldP99NS:    hold.P99(),
			HoldP999NS:   hold.P999(),
			HoldMaxNS:    hold.Max,
		})
	}
	return out
}
