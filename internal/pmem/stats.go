package pmem

import (
	"fmt"
	"sync/atomic"
)

// counterSet is one full set of hardware counters, updated with atomics
// from every thread.
type counterSet struct {
	mediaWriteBytes   atomic.Uint64
	mediaReadBytes    atomic.Uint64
	xpbufWriteBytes   atomic.Uint64
	xpbufWriteHits    atomic.Uint64
	xpbufWriteMiss    atomic.Uint64
	xpbufReadHits     atomic.Uint64
	xpbufReadMiss     atomic.Uint64
	cacheEvictions    atomic.Uint64
	userWriteBytes    atomic.Uint64
	remoteAccesses    atomic.Uint64
	mediaWriteByScope [NumScopes]atomic.Uint64
	xpbufWriteByScope [NumScopes]atomic.Uint64
}

func (c *counterSet) load() Stats {
	s := Stats{
		MediaWriteBytes:  c.mediaWriteBytes.Load(),
		MediaReadBytes:   c.mediaReadBytes.Load(),
		XPBufWriteBytes:  c.xpbufWriteBytes.Load(),
		XPBufWriteHits:   c.xpbufWriteHits.Load(),
		XPBufWriteMisses: c.xpbufWriteMiss.Load(),
		XPBufReadHits:    c.xpbufReadHits.Load(),
		XPBufReadMisses:  c.xpbufReadMiss.Load(),
		CacheEvictions:   c.cacheEvictions.Load(),
		UserWriteBytes:   c.userWriteBytes.Load(),
		RemoteAccesses:   c.remoteAccesses.Load(),
	}
	for i := range s.MediaWriteByScope {
		s.MediaWriteByScope[i] = c.mediaWriteByScope[i].Load()
	}
	for i := range s.XPBufWriteByScope {
		s.XPBufWriteByScope[i] = c.xpbufWriteByScope[i].Load()
	}
	return s
}

// counters is the pool-global counter state. The live counters (cur)
// are monotone and never zeroed; ResetStats instead captures a baseline
// copy (base) that snapshot subtracts. Keeping cur monotone is what
// makes ResetStats safe against concurrent snapshots: both sides only
// ever atomic-load/store individual words, so the race detector stays
// quiet and no reader can observe a half-zeroed counter set.
type counters struct {
	cur  counterSet
	base counterSet
}

// Stats is a snapshot of the pool's hardware counters, in the spirit of
// the ipmctl metrics the paper collects (§2.1).
type Stats struct {
	// MediaWriteBytes is the total written to the 3D-XPoint media
	// (XPLine write-backs × 256 B).
	MediaWriteBytes uint64
	// MediaReadBytes is the total read from the media (fills + read
	// misses × 256 B).
	MediaReadBytes uint64
	// XPBufWriteBytes is the total arriving at the XPBuffer from the
	// CPU (cacheline flushes × 64 B).
	XPBufWriteBytes uint64
	// XPBufWriteHits / XPBufWriteMisses count cacheline flushes that
	// were write-combined into a resident XPLine vs. those that forced
	// a fill.
	XPBufWriteHits   uint64
	XPBufWriteMisses uint64
	// XPBufReadHits / XPBufReadMisses classify PM loads.
	XPBufReadHits   uint64
	XPBufReadMisses uint64
	// CacheEvictions counts dirty cachelines written back by the
	// modeled CPU cache without an explicit flush.
	CacheEvictions uint64
	// UserWriteBytes is application-declared payload, the denominator
	// of both amplification factors (AddUserBytes).
	UserWriteBytes uint64
	// RemoteAccesses counts cross-socket PM accesses.
	RemoteAccesses uint64
	// MediaWriteByScope splits MediaWriteBytes by the attribution scope
	// (PushScope) of the thread that dirtied each written-back XPLine.
	// Every media write lands in exactly one bucket, so the buckets sum
	// to MediaWriteBytes (exactly at quiescence; see ResetStats for the
	// concurrent contract).
	MediaWriteByScope [NumScopes]uint64
	// XPBufWriteByScope splits XPBufWriteBytes the same way.
	XPBufWriteByScope [NumScopes]uint64
}

// CLIAmplification is bytes reaching the XPBuffer per user byte:
// cacheline-induced write amplification.
func (s Stats) CLIAmplification() float64 {
	if s.UserWriteBytes == 0 {
		return 0
	}
	return float64(s.XPBufWriteBytes) / float64(s.UserWriteBytes)
}

// XBIAmplification is bytes written to media per user byte:
// XPBuffer-induced write amplification, the paper's headline metric.
func (s Stats) XBIAmplification() float64 {
	if s.UserWriteBytes == 0 {
		return 0
	}
	return float64(s.MediaWriteBytes) / float64(s.UserWriteBytes)
}

// WriteHitRate is the fraction of cacheline flushes that were
// write-combined into an XPBuffer-resident XPLine (0 when no flushes
// have been observed).
func (s Stats) WriteHitRate() float64 {
	total := s.XPBufWriteHits + s.XPBufWriteMisses
	if total == 0 {
		return 0
	}
	return float64(s.XPBufWriteHits) / float64(total)
}

// ScopeMediaBytes returns the per-scope media-write attribution as a
// name-keyed map, omitting empty buckets.
func (s Stats) ScopeMediaBytes() map[string]uint64 {
	out := map[string]uint64{}
	for i, v := range s.MediaWriteByScope {
		if v > 0 {
			out[Scope(i).String()] = v
		}
	}
	return out
}

// String renders the counters in one line, the summary examples used to
// hand-assemble: media traffic, XPBuffer traffic with hit rate, user
// payload, and both amplification factors.
func (s Stats) String() string {
	return fmt.Sprintf(
		"media W %s R %s | xpbuf W %s (hit %.1f%%) | user %s | WA %.2f (CLI %.2f)",
		fmtBytes(s.MediaWriteBytes), fmtBytes(s.MediaReadBytes),
		fmtBytes(s.XPBufWriteBytes), 100*s.WriteHitRate(),
		fmtBytes(s.UserWriteBytes),
		s.XBIAmplification(), s.CLIAmplification())
}

// fmtBytes renders a byte count with a binary unit suffix.
func fmtBytes(n uint64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.2fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.2fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.2fKiB", float64(n)/(1<<10))
	}
	return fmt.Sprintf("%dB", n)
}

// monoSub is a clamped monotone-counter subtraction: a counter read
// racing a baseline capture can transiently observe cur < base, which
// must read as 0, not as a ~2^64 garbage delta.
func monoSub(c, b uint64) uint64 {
	if c < b {
		return 0
	}
	return c - b
}

// Sub returns the counter deltas s−t (for measuring a phase that started
// at snapshot t). Deltas are clamped at zero per counter, so a Sub
// spanning a concurrent ResetStats degrades to underreporting instead
// of underflowing.
func (s Stats) Sub(t Stats) Stats {
	d := Stats{
		MediaWriteBytes:  monoSub(s.MediaWriteBytes, t.MediaWriteBytes),
		MediaReadBytes:   monoSub(s.MediaReadBytes, t.MediaReadBytes),
		XPBufWriteBytes:  monoSub(s.XPBufWriteBytes, t.XPBufWriteBytes),
		XPBufWriteHits:   monoSub(s.XPBufWriteHits, t.XPBufWriteHits),
		XPBufWriteMisses: monoSub(s.XPBufWriteMisses, t.XPBufWriteMisses),
		XPBufReadHits:    monoSub(s.XPBufReadHits, t.XPBufReadHits),
		XPBufReadMisses:  monoSub(s.XPBufReadMisses, t.XPBufReadMisses),
		CacheEvictions:   monoSub(s.CacheEvictions, t.CacheEvictions),
		UserWriteBytes:   monoSub(s.UserWriteBytes, t.UserWriteBytes),
		RemoteAccesses:   monoSub(s.RemoteAccesses, t.RemoteAccesses),
	}
	for i := range d.MediaWriteByScope {
		d.MediaWriteByScope[i] = monoSub(s.MediaWriteByScope[i], t.MediaWriteByScope[i])
	}
	for i := range d.XPBufWriteByScope {
		d.XPBufWriteByScope[i] = monoSub(s.XPBufWriteByScope[i], t.XPBufWriteByScope[i])
	}
	return d
}

func (c *counters) snapshot() Stats {
	cur := c.cur.load()
	base := c.base.load()
	return cur.Sub(base)
}

// reset captures the live counters as the new baseline. See ResetStats
// for the concurrency contract.
func (c *counters) reset() {
	c.base.mediaWriteBytes.Store(c.cur.mediaWriteBytes.Load())
	c.base.mediaReadBytes.Store(c.cur.mediaReadBytes.Load())
	c.base.xpbufWriteBytes.Store(c.cur.xpbufWriteBytes.Load())
	c.base.xpbufWriteHits.Store(c.cur.xpbufWriteHits.Load())
	c.base.xpbufWriteMiss.Store(c.cur.xpbufWriteMiss.Load())
	c.base.xpbufReadHits.Store(c.cur.xpbufReadHits.Load())
	c.base.xpbufReadMiss.Store(c.cur.xpbufReadMiss.Load())
	c.base.cacheEvictions.Store(c.cur.cacheEvictions.Load())
	c.base.userWriteBytes.Store(c.cur.userWriteBytes.Load())
	c.base.remoteAccesses.Store(c.cur.remoteAccesses.Load())
	for i := range c.base.mediaWriteByScope {
		c.base.mediaWriteByScope[i].Store(c.cur.mediaWriteByScope[i].Load())
	}
	for i := range c.base.xpbufWriteByScope {
		c.base.xpbufWriteByScope[i].Store(c.cur.xpbufWriteByScope[i].Load())
	}
}
