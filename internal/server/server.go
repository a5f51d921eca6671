// Package server is the serving tier over a sharded cclbtree.DB: the
// piece that turns "one tree per socket" into a KV frontend for very
// many concurrent clients.
//
// Layout:
//
//   - Router: every write is hashed to its shard (the DB's stable
//     routing hash) and enqueued on that shard's commit lane.
//   - Commit lanes: one goroutine per shard, pinned to the shard's
//     home socket, owning the only Session that writes the shard. A
//     lane drains its queue and coalesces up to Config.MaxBatch
//     pending ops into one Session.Apply group commit — N clients'
//     ops share one WAL fence and, when they land on the same leaf,
//     one leaf write. This is the server-side continuation of the
//     paper's leaf-node-centric buffering: client concurrency becomes
//     batch depth.
//   - Session pool: reads are lock-free in the tree, so they bypass
//     the lanes entirely and run on a pool of read sessions.
//
// Backpressure is explicit: a full lane queue rejects TryPut with
// cclbtree.ErrBackpressure (open-loop clients shed load) while Put
// blocks (closed-loop clients self-clock). After Close every entry
// point returns cclbtree.ErrShardClosed.
//
// Because the device model meters virtual time per thread, the lanes
// are also the scaling story the shards benchmark measures: each lane
// advances its own virtual clock, and aggregate throughput is total
// ops over the slowest lane's clock — more shards, more lanes, more
// virtual-time parallelism, until one socket's lanes saturate it.
package server

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"cclbtree"
	"cclbtree/internal/core"
	"cclbtree/internal/obs"
)

// Config configures a Server. The zero value of everything but DB is
// usable.
type Config struct {
	// DB is the (typically sharded) store to serve. Required.
	DB *cclbtree.DB
	// QueueDepth bounds each shard's pending-write queue (default
	// 1024). A full queue blocks Put and rejects TryPut.
	QueueDepth int
	// MaxBatch bounds how many queued ops one group commit coalesces
	// (default 64).
	MaxBatch int
}

func (c Config) withDefaults() Config {
	if c.QueueDepth == 0 {
		c.QueueDepth = 1024
	}
	if c.MaxBatch == 0 {
		c.MaxBatch = 64
	}
	return c
}

// op is one queued write. done is buffered so the lane never blocks
// completing an op whose client already gave up.
type op struct {
	key    uint64
	value  uint64
	delete bool
	done   chan error
}

// opPool recycles ops with their done channels. Reuse is safe because
// every use sends on done at most once (the lane, after the commit) and
// receives exactly once per send (write), so a pooled op's channel is
// always empty and the lane never touches an op after completing it.
var opPool = sync.Pool{New: func() any { return &op{done: make(chan error, 1)} }}

// lane is one shard's commit pipeline: a bounded queue drained by a
// dedicated committer goroutine whose Session is homed on the shard's
// socket.
type lane struct {
	shard   int
	socket  int
	ch      chan *op
	sess    *cclbtree.Session
	startVT int64

	ops     atomic.Uint64
	batches atomic.Uint64
	endVT   atomic.Int64
}

// Server routes client operations to per-shard commit lanes.
type Server struct {
	cfg   Config
	db    *cclbtree.DB
	lanes []*lane
	reads chan *cclbtree.Session

	mu       sync.RWMutex // guards closed vs in-flight enqueues
	closed   bool
	rejected atomic.Uint64
	wg       sync.WaitGroup
}

// New starts a server over cfg.DB: one commit lane per shard plus the
// read session pool. The server owns no storage — closing it leaves
// the DB open.
func New(cfg Config) (*Server, error) {
	if cfg.DB == nil {
		return nil, fmt.Errorf("server: Config.DB required")
	}
	cfg = cfg.withDefaults()
	s := &Server{cfg: cfg, db: cfg.DB}
	for i := 0; i < cfg.DB.Shards(); i++ {
		socket := cfg.DB.ShardHomeSocket(i)
		sess := cfg.DB.Session(socket)
		l := &lane{
			shard:   i,
			socket:  socket,
			ch:      make(chan *op, cfg.QueueDepth),
			sess:    sess,
			startVT: sess.Now(),
		}
		s.lanes = append(s.lanes, l)
		s.wg.Add(1)
		go s.commitLoop(l)
	}
	// Read pool: two sessions per shard. Reads borrow one and run
	// lock-free against the trees directly.
	readSessions := max(2, 2*cfg.DB.Shards())
	s.reads = make(chan *cclbtree.Session, readSessions)
	for i := 0; i < readSessions; i++ {
		s.reads <- cfg.DB.Session(i % cfg.DB.Pool().Sockets())
	}
	return s, nil
}

// commitLoop drains one lane: block for the first pending op, then
// greedily coalesce whatever else is already queued (up to MaxBatch)
// into one group commit. Under light load batches degrade to size 1
// (latency of a lone op is one Apply); under heavy load they grow to
// MaxBatch (throughput amortizes the WAL fence across clients).
func (s *Server) commitLoop(l *lane) {
	defer s.wg.Done()
	var b cclbtree.Batch
	pending := make([]*op, 0, s.cfg.MaxBatch)
	for first := range l.ch {
		pending = append(pending[:0], first)
		// In the device model a commit costs no wall-clock time, so
		// without a scheduling yield the lane would always outrun the
		// clients and every batch would be size 1. The two Gosched
		// passes model the real-world commit window: senders that are
		// runnable get their ops into this group commit.
		yields := 0
	coalesce:
		for len(pending) < s.cfg.MaxBatch {
			select {
			case o, ok := <-l.ch:
				if !ok {
					break coalesce
				}
				pending = append(pending, o)
			default:
				if yields++; yields > 2 {
					break coalesce
				}
				runtime.Gosched()
			}
		}
		b.Reset()
		for _, o := range pending {
			if o.delete {
				b.Delete(o.key)
			} else {
				b.Put(o.key, o.value)
			}
		}
		err := l.sess.Apply(&b)
		for _, o := range pending {
			o.done <- err
		}
		l.ops.Add(uint64(len(pending)))
		l.batches.Add(1)
		l.endVT.Store(l.sess.Now())
	}
}

// enqueue routes one write to its lane. block selects Put (wait for
// queue space) vs TryPut (reject with ErrBackpressure).
func (s *Server) enqueue(o *op, key uint64, block bool) error {
	l := s.lanes[s.db.ShardFor(key)]
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return fmt.Errorf("server: shard %d: %w", l.shard, cclbtree.ErrShardClosed)
	}
	if block {
		// Holding the read lock while blocked is deliberate: Close
		// cannot take the write lock (and close the channel under us)
		// until the send lands, and the committer keeps draining.
		l.ch <- o
		s.mu.RUnlock()
		return nil
	}
	select {
	case l.ch <- o:
		s.mu.RUnlock()
		return nil
	default:
		s.mu.RUnlock()
		s.rejected.Add(1)
		return fmt.Errorf("server: shard %d: %w", l.shard, cclbtree.ErrBackpressure)
	}
}

// write runs one op through its lane and waits for the group commit
// that includes it.
func (s *Server) write(key, value uint64, del, block bool) error {
	o := opPool.Get().(*op)
	o.key, o.value, o.delete = key, value, del
	err := s.enqueue(o, key, block)
	if err == nil {
		err = <-o.done
	}
	opPool.Put(o)
	return err
}

// Put durably writes a pair through the shard's commit lane, blocking
// for queue space (closed-loop discipline) and for the group commit
// that includes it.
func (s *Server) Put(key, value uint64) error { return s.write(key, value, false, true) }

// TryPut is Put with open-loop discipline: a full lane queue rejects
// immediately with cclbtree.ErrBackpressure instead of blocking.
func (s *Server) TryPut(key, value uint64) error { return s.write(key, value, false, false) }

// Delete removes a key through the shard's commit lane.
func (s *Server) Delete(key uint64) error { return s.write(key, 0, true, true) }

// Get reads a key on a pooled session, bypassing the commit lanes
// (reads are lock-free in the tree). It returns ErrShardClosed after
// Close.
func (s *Server) Get(key uint64) (uint64, bool, error) {
	s.mu.RLock()
	if s.closed {
		s.mu.RUnlock()
		return 0, false, fmt.Errorf("server: %w", cclbtree.ErrShardClosed)
	}
	sess := <-s.reads
	s.mu.RUnlock()
	v, ok := sess.Get(key)
	s.reads <- sess
	return v, ok, nil
}

// Close drains every lane and stops the committers: queued writes
// commit, new operations fail with cclbtree.ErrShardClosed. The DB
// stays open — the caller owns it.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	s.mu.Unlock()
	for _, l := range s.lanes {
		close(l.ch)
	}
	s.wg.Wait()
}

// LaneStats is one commit lane's activity and attribution.
type LaneStats struct {
	Shard      int     `json:"shard"`
	HomeSocket int     `json:"home_socket"`
	Ops        uint64  `json:"ops"`
	Batches    uint64  `json:"batches"`
	AvgBatch   float64 `json:"avg_batch"`
	// VirtualNS is the lane session's virtual-clock advance since the
	// server started: the lane's busy time in the device model.
	VirtualNS int64 `json:"virtual_ns"`
	// Counters is the underlying shard tree's behavioral statistics
	// (cumulative; includes traffic from before this server).
	Counters core.Counters `json:"counters"`
}

// ShardPhase converts the lane's activity into the obs-tier per-shard
// phase attribution the bench report embeds.
func (ls LaneStats) ShardPhase() obs.ShardPhase {
	return obs.ShardPhase{
		Shard:      ls.Shard,
		HomeSocket: ls.HomeSocket,
		Ops:        ls.Ops,
		Batches:    ls.Batches,
		AvgBatch:   ls.AvgBatch,
		VirtualNS:  ls.VirtualNS,
		Upserts:    ls.Counters.Upserts,
	}
}

// Stats describes the server's activity per lane.
type Stats struct {
	Lanes []LaneStats `json:"lanes"`
	// MaxLaneVirtualNS is the slowest lane's busy time: the virtual
	// elapsed time of the write workload when lanes run in parallel.
	MaxLaneVirtualNS int64 `json:"max_lane_virtual_ns"`
	// Rejected counts TryPut calls shed with ErrBackpressure.
	Rejected uint64 `json:"rejected"`
}

// Stats snapshots per-lane activity. Safe to call concurrently with
// traffic; the snapshot is not a consistent cut.
func (s *Server) Stats() Stats {
	st := Stats{Rejected: s.rejected.Load()}
	for _, l := range s.lanes {
		ops, batches := l.ops.Load(), l.batches.Load()
		avg := 0.0
		if batches > 0 {
			avg = float64(ops) / float64(batches)
		}
		vt := l.endVT.Load()
		if vt == 0 {
			vt = l.startVT
		}
		ls := LaneStats{
			Shard:      l.shard,
			HomeSocket: l.socket,
			Ops:        ops,
			Batches:    batches,
			AvgBatch:   avg,
			VirtualNS:  vt - l.startVT,
			Counters:   s.db.ShardCounters(l.shard),
		}
		st.Lanes = append(st.Lanes, ls)
		if ls.VirtualNS > st.MaxLaneVirtualNS {
			st.MaxLaneVirtualNS = ls.VirtualNS
		}
	}
	return st
}

// DB returns the store the server fronts.
func (s *Server) DB() *cclbtree.DB { return s.db }
