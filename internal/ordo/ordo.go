// Package ordo models invariant hardware timestamps (rdtsc) with the
// ORDO primitive of Kashyap et al. (EuroSys '18), which CCL-BTree uses
// to order WAL entries across sockets (§3.3).
//
// Real TSCs on different sockets are synchronized only up to a constant
// offset, bounded by ORDO's uncertainty boundary. The model keeps one
// logical counter plus a constant per-socket skew synthesized inside
// that boundary, so timestamps are cheap and strictly increasing per
// socket, and cross-socket reads genuinely disagree: a tick drawn later
// on one socket can be lower than one drawn earlier on another. Nothing
// is ordered by comparing raw ticks across sockets; the tree raises each
// tick above the last one drawn under the same node lock (core's
// Worker.Stamp), so its ticks follow lock order.
package ordo

import "sync/atomic"

// Clock issues ORDO timestamps. The zero value is unusable; use New.
type Clock struct {
	counter atomic.Uint64
	skew    []uint64
}

// New creates a clock for the given socket count. boundary is the ORDO
// uncertainty window in ticks; per-socket skews are synthesized inside
// it so cross-socket reads genuinely disagree, as on real hardware.
func New(sockets int, boundary uint64) *Clock {
	if sockets < 1 {
		sockets = 1
	}
	c := &Clock{skew: make([]uint64, sockets)}
	for i := range c.skew {
		if boundary > 0 {
			c.skew[i] = (uint64(i) * 2654435761) % boundary
		}
	}
	c.counter.Store(1) // timestamp 0 is reserved as "never written"
	return c
}

// Now returns the current timestamp as read from socket's TSC.
func (c *Clock) Now(socket int) uint64 {
	return c.counter.Add(1) + c.skew[socket]
}

// AdvanceTo raises the clock so that every future Now, on any socket,
// returns a timestamp strictly greater than ts. Recovery uses it to
// resume the tick domain above everything durably stamped in the
// pre-crash image: a clock restarted from zero would hand out ticks
// that old WAL residue outranks, silently shadowing post-recovery
// writes at the next crash.
func (c *Clock) AdvanceTo(ts uint64) {
	for {
		cur := c.counter.Load()
		if cur >= ts || c.counter.CompareAndSwap(cur, ts) {
			return
		}
	}
}
