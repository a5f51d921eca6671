// Package ordo models invariant hardware timestamps (rdtsc) with the
// ORDO primitive of Kashyap et al. (EuroSys '18), which CCL-BTree uses
// to order WAL entries across sockets (§3.3).
//
// Real TSCs on different sockets are synchronized only up to a constant
// offset; ORDO exposes a measured uncertainty boundary so software can
// tell "definitely earlier" from "possibly concurrent". The model keeps
// one logical counter plus a constant per-socket skew, so timestamps are
// cheap, strictly increasing per socket, and cross-socket comparisons
// behave exactly like the primitive: ordering is reliable only beyond
// the boundary.
package ordo

import "sync/atomic"

// Clock issues ORDO timestamps. The zero value is unusable; use New.
type Clock struct {
	counter  atomic.Uint64
	skew     []uint64
	boundary uint64
}

// New creates a clock for the given socket count. boundary is the ORDO
// uncertainty window in ticks; per-socket skews are synthesized inside
// it so cross-socket reads genuinely disagree, as on real hardware.
func New(sockets int, boundary uint64) *Clock {
	if sockets < 1 {
		sockets = 1
	}
	c := &Clock{skew: make([]uint64, sockets), boundary: boundary}
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

// After reports whether timestamp a is definitely after b, i.e. their
// gap exceeds the uncertainty boundary. Within the boundary the order is
// unknown and callers must treat the events as concurrent.
func (c *Clock) After(a, b uint64) bool {
	return a > b && a-b > c.boundary
}

// Max returns the later of two timestamps (by raw value; callers use it
// where either order is acceptable inside the boundary, e.g. recovery
// picking the newest version).
func Max(a, b uint64) uint64 {
	if a > b {
		return a
	}
	return b
}
