package cclbtree

import (
	"cclbtree/internal/core"
	"cclbtree/internal/pmem"
)

// Session is a per-goroutine handle. Create one per worker goroutine
// with DB.Session; it owns a thread-local write-ahead log per shard
// and must not be shared.
//
// On a sharded DB every operation routes to its key's shard and runs
// on a worker homed on that shard's socket — the handoff the serving
// tier performs literally with per-shard commit lanes. The session
// models ONE client thread: its per-shard workers share a serial
// virtual clock (each op starts no earlier than the previous op
// finished, whichever shard that was on), so sharding never fakes
// single-client speedup in the simulated-time model. Real scaling
// comes from many sessions — or the server's commit lanes — running
// concurrently on different shards.
type Session struct {
	db *DB
	ws []*core.Worker
	// vt is the serial clock: the max virtual time any of the
	// session's workers has reached. Maintained only when sharded.
	vt int64
	// perShard is Apply's split of a batch by shard, kept (reset, not
	// remade) from call to call.
	perShard [][]core.BatchOp
}

// Session creates an operation handle. On a single-shard DB the
// worker binds to the given NUMA socket (today's behaviour); on a
// sharded DB each shard's worker binds to that shard's home socket so
// the session's writes stay NUMA-local to their shard, and the socket
// argument only seats shard-independent state.
func (db *DB) Session(socket int) *Session {
	s := &Session{
		db:       db,
		ws:       make([]*core.Worker, len(db.shards)),
		perShard: make([][]core.BatchOp, len(db.shards)),
	}
	for i, tr := range db.shards {
		home := socket
		if len(db.shards) > 1 {
			home = tr.Options().HomeSocket
		}
		s.ws[i] = tr.NewWorker(home)
		if now := s.ws[i].Thread().Now(); now > s.vt {
			s.vt = now
		}
	}
	return s
}

// Now returns the session's serial virtual clock: the virtual time its
// latest operation finished at, regardless of which shard ran it.
func (s *Session) Now() int64 {
	if len(s.ws) == 1 {
		return s.ws[0].Thread().Now()
	}
	return s.vt
}

// worker returns the shard's worker with its clock advanced to the
// session's serial clock, so cross-shard ops cannot overlap in
// virtual time.
func (s *Session) worker(shard int) *core.Worker {
	w := s.ws[shard]
	if len(s.ws) > 1 {
		w.Thread().SyncClock(s.vt)
	}
	return w
}

// settle folds a worker's post-op clock back into the serial clock.
func (s *Session) settle(w *core.Worker) {
	if len(s.ws) > 1 {
		if now := w.Thread().Now(); now > s.vt {
			s.vt = now
		}
	}
}

// Thread exposes the session's shard-0 PM thread (virtual clock and
// scope). On a sharded DB, per-shard threads advance independently
// between sync points; the serial clock is the maximum across them.
func (s *Session) Thread() *pmem.Thread { return s.ws[0].Thread() }

// Put inserts or updates a fixed 8 B pair. Key must be nonzero and
// value nonzero (zero is the paper's tombstone sentinel).
func (s *Session) Put(key, value uint64) error {
	w := s.worker(s.db.shardFor(key))
	err := w.Upsert(key, value)
	s.settle(w)
	return err
}

// Get returns the value for key. Reads are lock-free: the session
// traverses version-stamped nodes optimistically and retries on a
// concurrent writer's version change, never blocking it (seqlock
// discipline; see Counters.ReadRetries).
func (s *Session) Get(key uint64) (uint64, bool) {
	w := s.worker(s.db.shardFor(key))
	v, ok := w.Lookup(key)
	s.settle(w)
	return v, ok
}

// Delete removes key (tombstone insertion; space is reclaimed when the
// tombstone reaches the leaf).
func (s *Session) Delete(key uint64) error {
	w := s.worker(s.db.shardFor(key))
	err := w.Delete(key)
	s.settle(w)
	return err
}

// KV is a fixed-size scan result.
type KV = core.KV

// Scan fills out with up to len(out) live entries with key ≥ start in
// ascending order and returns the count. Like Get, Scan is lock-free:
// each node is snapshotted optimistically and re-validated, and leaves
// unlinked by a concurrent merge stay readable until every in-flight
// read has finished (epoch-based reclamation). On a sharded DB the
// per-shard streams are merged in key order.
func (s *Session) Scan(start uint64, out []KV) int {
	if len(s.ws) == 1 {
		return s.ws[0].Scan(start, len(out), out)
	}
	n := 0
	for k, v := range s.Range(start) {
		if n == len(out) {
			break
		}
		out[n] = KV{Key: k, Value: v}
		n++
	}
	return n
}

// PutVar inserts or updates a variable-size pair (requires VarKV).
func (s *Session) PutVar(key, value []byte) error {
	w := s.worker(s.db.shardForBytes(key))
	err := w.UpsertVar(key, value)
	s.settle(w)
	return err
}

// GetVar returns the value for a variable-size key.
func (s *Session) GetVar(key []byte) ([]byte, bool) {
	w := s.worker(s.db.shardForBytes(key))
	v, ok := w.LookupVar(key)
	s.settle(w)
	return v, ok
}

// DeleteVar removes a variable-size key.
func (s *Session) DeleteVar(key []byte) error {
	w := s.worker(s.db.shardForBytes(key))
	err := w.DeleteVar(key)
	s.settle(w)
	return err
}

// KVBytes is a variable-size scan result.
type KVBytes = core.KVBytes

// ScanVar returns up to max live entries with key ≥ start in ascending
// byte order, merged across shards; none when max <= 0.
func (s *Session) ScanVar(start []byte, max int) []KVBytes {
	if max <= 0 {
		return nil
	}
	if len(s.ws) == 1 {
		return s.ws[0].ScanVar(start, max)
	}
	var out []KVBytes
	for k, v := range s.RangeVar(start) {
		if len(out) == max {
			break
		}
		out = append(out, KVBytes{Key: k, Value: v})
	}
	return out
}

// PutLargeValue stores an 8 B key with an out-of-band value blob
// through an indirection pointer (§4.4), for values larger than 8 B.
func (s *Session) PutLargeValue(key uint64, value []byte) error {
	w := s.worker(s.db.shardFor(key))
	err := w.UpsertLargeValue(key, value)
	s.settle(w)
	return err
}

// GetLargeValue fetches a value stored with PutLargeValue (or Put).
func (s *Session) GetLargeValue(key uint64) ([]byte, bool) {
	w := s.worker(s.db.shardFor(key))
	v, ok := w.LookupLargeValue(key)
	s.settle(w)
	return v, ok
}

// PutIndirect stores a fixed 8 B key with a pre-built indirection
// pointer word (IsIndirect must hold). Harnesses that manage their own
// value blobs use this to drive every index through one code path.
func (s *Session) PutIndirect(key, pointerWord uint64) error {
	w := s.worker(s.db.shardFor(key))
	err := w.UpsertIndirect(key, pointerWord)
	s.settle(w)
	return err
}
