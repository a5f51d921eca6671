// Package wal implements the paper's write-ahead log substrate (§3.3):
// per-thread logs made of 4 MB PM chunks drawn from a shared free list,
// 24 B entries (16 B KV + 8 B ORDO timestamp), and the two-generation
// (B-log / I-log) chunk ownership that locality-aware GC flips between
// (§3.4).
//
// Logs are single-writer: each worker thread appends only to its own
// Log, which is what makes the per-thread design scale and keeps every
// append an XPBuffer-friendly sequential write. Chunk recycling never
// zeroes PM (that would itself cause XPLine writes): recovery instead
// filters stale entries by timestamp against the leaf they belong to,
// which is sound because any reclaimed entry is superseded by a newer
// record of its key in a live chunk or by the stamp of a leaf its KV
// was flushed to (see core's recovery).
//
// On PM, the timestamp word is checksum-stamped: the ORDO tick lives in
// the upper 48 bits and a 16-bit check code over (key, value, tick) in
// the low 16. A 24 B entry spans three 8 B words, and real hardware
// persists words — not entries — atomically: a power failure during an
// append (or a torn XPLine write-back, see pmem.TearPending) can leave
// an entry whose key and value drained but whose timestamp word still
// holds a stale record's bytes from the recycled, never-zeroed chunk.
// Such a Frankenstein entry has a stale-but-plausible timestamp and
// would replay garbage into the tree. The check code binds the three
// words together: scans drop any record whose code does not match, so
// only entries whose append fully drained are ever replayed. The
// stamping is an on-PM encoding detail — Append takes and Entries
// returns plain ticks.
package wal

import (
	"fmt"
	"sync"

	"cclbtree/internal/pmalloc"
	"cclbtree/internal/pmem"
)

// EntrySize is the on-PM size of one log record: key, value, timestamp.
const EntrySize = 3 * pmem.WordSize

// DefaultChunkBytes is the paper's log chunk size.
const DefaultChunkBytes = 4 << 20

// Entry is one WAL record. A zero Timestamp marks unwritten space and is
// never produced by a live append (ordo reserves it).
type Entry struct {
	Key, Value, Timestamp uint64
}

// MaxTick is the largest ORDO tick an entry can carry: the on-PM
// timestamp word keeps the tick in its upper 48 bits alongside the
// 16-bit check code.
const MaxTick = 1<<48 - 1

const tsTickShift = 16

// entryCheck computes the 16-bit code binding an entry's three words
// (FNV-1a over the 24 bytes, folded to 16 bits).
func entryCheck(key, value, tick uint64) uint16 {
	h := uint64(14695981039346656037)
	for _, w := range [3]uint64{key, value, tick} {
		for i := 0; i < 8; i++ {
			h ^= (w >> (8 * uint(i))) & 0xff
			h *= 1099511628211
		}
	}
	return uint16(h ^ h>>16 ^ h>>32 ^ h>>48)
}

// EncodeTimestamp builds the on-PM timestamp word for an entry.
func EncodeTimestamp(key, value, tick uint64) uint64 {
	return tick<<tsTickShift | uint64(entryCheck(key, value, tick))
}

// DecodeTimestamp validates an on-PM timestamp word against its key and
// value words, returning the tick. ok is false for unwritten space
// (zero word) and for torn or stale-mix records whose check code does
// not match.
func DecodeTimestamp(key, value, word uint64) (tick uint64, ok bool) {
	tick = word >> tsTickShift
	if tick == 0 {
		return 0, false
	}
	return tick, uint16(word) == entryCheck(key, value, tick)
}

// Manager owns the per-socket free lists of recycled log chunks and
// allocates new ones when the free list runs dry, exactly the scheme of
// §3.3.
type Manager struct {
	alloc      *pmalloc.Allocator
	chunkBytes int

	// OnAcquire/OnRelease, when set before first use, are invoked for
	// every chunk handed to or taken back from a log. CCL-BTree hooks
	// them to maintain its persistent chunk directory so recovery can
	// find every log without volatile state.
	OnAcquire func(pmem.Addr)
	OnRelease func(pmem.Addr)

	mu        sync.Mutex
	free      map[int][]pmem.Addr // socket -> free chunks
	allocated int64               // chunks ever allocated (not free-listed)
}

// NewManager creates a chunk manager. chunkBytes ≤ 0 selects the 4 MB
// default; it must be a multiple of EntrySize and XPLineSize.
func NewManager(alloc *pmalloc.Allocator, chunkBytes int) *Manager {
	if chunkBytes <= 0 {
		chunkBytes = DefaultChunkBytes
	}
	if chunkBytes%pmem.XPLineSize != 0 {
		panic("wal: chunk size must be XPLine aligned")
	}
	return &Manager{
		alloc:      alloc,
		chunkBytes: chunkBytes,
		free:       map[int][]pmem.Addr{},
	}
}

// ChunkBytes returns the configured chunk size.
func (m *Manager) ChunkBytes() int { return m.chunkBytes }

// AcquireChunk returns a chunk on the given socket, recycling from the
// free list first.
func (m *Manager) AcquireChunk(socket int) (pmem.Addr, error) {
	m.mu.Lock()
	if lst := m.free[socket]; len(lst) > 0 {
		a := lst[len(lst)-1]
		m.free[socket] = lst[:len(lst)-1]
		m.mu.Unlock()
		if m.OnAcquire != nil {
			m.OnAcquire(a)
		}
		return a, nil
	}
	m.allocated++
	m.mu.Unlock()
	a, err := m.alloc.Alloc(socket, m.chunkBytes)
	if err != nil {
		return pmem.NilAddr, fmt.Errorf("wal: acquire chunk: %w", err)
	}
	if m.OnAcquire != nil {
		m.OnAcquire(a)
	}
	return a, nil
}

// InUseChunks reports chunks currently held by logs (allocated minus
// free-listed), the numerator of the GC trigger ratio.
func (m *Manager) InUseChunks() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := m.allocated
	for _, lst := range m.free {
		n -= int64(len(lst))
	}
	return n
}

// ReleaseChunks puts chunks back on their sockets' free lists.
func (m *Manager) ReleaseChunks(chunks []pmem.Addr) {
	if m.OnRelease != nil {
		for _, c := range chunks {
			m.OnRelease(c)
		}
	}
	m.mu.Lock()
	for _, c := range chunks {
		m.free[c.Socket()] = append(m.free[c.Socket()], c)
	}
	m.mu.Unlock()
}

// AdoptChunks takes ownership of externally discovered chunks (recovery
// hands back the pre-crash log chunks that hold no record it still
// needs) and free-lists them.
func (m *Manager) AdoptChunks(chunks []pmem.Addr) {
	m.adopt(len(chunks))
	m.ReleaseChunks(chunks)
}

// adopt counts n externally discovered chunks as the manager's.
func (m *Manager) adopt(n int) {
	m.mu.Lock()
	m.allocated += int64(n)
	m.mu.Unlock()
}

// FreeChunks reports the number of free-listed chunks on a socket.
func (m *Manager) FreeChunks(socket int) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.free[socket])
}

// AllocatedChunks reports how many chunks were ever allocated from PM
// (the peak footprint; free-listed chunks are still PM-resident).
func (m *Manager) AllocatedChunks() int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.allocated
}

// Log is one thread's append-only log for one generation (B or I). The
// owner goroutine calls Append; Chunks/Bytes/Detach may be called by a
// GC thread concurrently.
type Log struct {
	m      *Manager
	socket int

	mu      sync.Mutex
	chunks  []pmem.Addr
	tailOff int   // bytes used in the last chunk
	bytes   int64 // total appended
}

// NewLog creates an empty log bound to a socket.
func NewLog(m *Manager, socket int) *Log {
	return &Log{m: m, socket: socket}
}

// Append persists one entry (write + flush + fence) and returns its
// address. The entry is durable when Append returns — the WAL contract
// the buffer nodes rely on. It is a group commit of one.
func (l *Log) Append(t *pmem.Thread, e Entry) (pmem.Addr, error) {
	one := [1]Entry{e}
	return l.appendGroup(t, one[:])
}

// AppendBatch persists a group of entries with a single trailing fence
// (group commit): every record is stored and its cachelines flushed as
// it is laid down, then one sfence retires the whole group. Compared to
// len(entries) Append calls this saves len(entries)-1 fence stalls while
// keeping every 24 B record individually check-code-bound, so a crash
// mid-batch tears at record granularity — each record independently
// either replays or is dropped — never across records.
//
// All entries must be treated as volatile until AppendBatch returns;
// afterwards every one of them is durable. Entries are validated before
// any PM write, so a validation error means nothing was appended. An
// allocation error mid-group fences the already-written prefix before
// returning, so no record is left in the flushed-but-unfenced limbo.
func (l *Log) AppendBatch(t *pmem.Thread, entries []Entry) error {
	_, err := l.appendGroup(t, entries)
	return err
}

// appendGroup lays the records down and returns the address of the
// last one.
func (l *Log) appendGroup(t *pmem.Thread, entries []Entry) (pmem.Addr, error) {
	for i := range entries {
		if entries[i].Timestamp == 0 {
			return pmem.NilAddr, fmt.Errorf("wal: zero timestamp is reserved")
		}
		if entries[i].Timestamp > MaxTick {
			return pmem.NilAddr, fmt.Errorf("wal: timestamp %#x exceeds MaxTick", entries[i].Timestamp)
		}
	}
	// Attribution: log bytes are ScopeWAL no matter who appends — a
	// foreground upsert, GC copying survivors into an I-log, recovery —
	// so per-scope breakdowns always show log traffic as log traffic
	// (the documented exception to innermost-scope-wins).
	defer t.PopScope(t.PushScope(pmem.ScopeWAL))
	// Contiguous records share cachelines, so the clwb sweep runs once
	// per contiguous span (usually the whole group), not once per
	// record — per-record flushing would re-flush each shared line and
	// re-send it to the XPBuffer, costing both virtual time and write
	// amplification.
	var addr, spanStart pmem.Addr
	var spanLen int
	flushSpan := func() {
		if spanLen > 0 {
			// The matching fence is one frame up: every appendGroup
			// return path runs flushSpan and then t.Fence.
			t.Flush(spanStart, spanLen) //persistlint:ignore PL002 fenced by the caller on every return path
			spanLen = 0
		}
	}
	for _, e := range entries {
		l.mu.Lock()
		if len(l.chunks) == 0 || l.tailOff+EntrySize > l.m.chunkBytes {
			c, err := l.m.AcquireChunk(l.socket)
			if err != nil {
				l.mu.Unlock()
				// Retire the flushed prefix before surfacing the error:
				// records already laid down stay durable, not pending.
				flushSpan()
				t.Fence()
				return pmem.NilAddr, err
			}
			l.chunks = append(l.chunks, c)
			l.tailOff = 0
		}
		addr = l.chunks[len(l.chunks)-1].Add(int64(l.tailOff))
		l.tailOff += EntrySize
		l.bytes += EntrySize
		l.mu.Unlock()
		t.Store(addr, e.Key)                                                //persistlint:ignore PL001 flushed by the flushSpan sweep on every return path
		t.Store(addr.Add(8), e.Value)                                       //persistlint:ignore PL001 flushed by the flushSpan sweep on every return path
		t.Store(addr.Add(16), EncodeTimestamp(e.Key, e.Value, e.Timestamp)) //persistlint:ignore PL001 flushed by the flushSpan sweep on every return path
		if spanLen > 0 && addr == spanStart.Add(int64(spanLen)) {
			spanLen += EntrySize
		} else {
			flushSpan()
			spanStart, spanLen = addr, EntrySize
		}
	}
	flushSpan()
	t.Fence()
	return addr, nil
}

// Bytes returns the total entry bytes appended to this log.
func (l *Log) Bytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.bytes
}

// ChunkBytes returns the PM footprint currently held by the log.
func (l *Log) ChunkBytes() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int64(len(l.chunks)) * int64(l.m.chunkBytes)
}

// TailFull reports whether the log's next record needs another chunk
// because the last one it holds is full.
func (l *Log) TailFull() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.chunks) > 0 && l.tailOff+EntrySize > l.m.chunkBytes
}

// Adopt hands the log externally discovered chunks that hold records it
// must keep (recovery's pre-crash chunks whose records live on in DRAM),
// as full chunks ahead of its own: its next append takes a chunk of its
// own, and Detach releases them with the rest. Each counts as a full
// chunk of records in Bytes.
func (l *Log) Adopt(chunks []pmem.Addr) {
	l.m.adopt(len(chunks))
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.chunks) == 0 {
		l.tailOff = l.m.chunkBytes
	}
	l.chunks = append(append([]pmem.Addr(nil), chunks...), l.chunks...)
	l.bytes += int64(len(chunks) * (l.m.chunkBytes / EntrySize) * EntrySize)
}

// Detach removes and returns the log's chunks, resetting it to empty.
// The caller passes them to Manager.ReleaseChunks once no reader needs
// them (end of a GC round).
func (l *Log) Detach() []pmem.Addr {
	l.mu.Lock()
	defer l.mu.Unlock()
	chunks := l.chunks
	l.chunks = nil
	l.tailOff = 0
	l.bytes = 0
	return chunks
}

// Entries reads every record currently in the log, skipping unwritten
// slots and check-code-invalid (torn) records. Because recycled chunks
// are not zeroed, the
// result may include stale records from earlier generations; callers
// filter them by comparing timestamps with the owning leaf (see §3.3's
// latest-version rule). The log must be quiescent (no concurrent
// Append) — this is a recovery/GC path.
func (l *Log) Entries(t *pmem.Thread) []Entry {
	l.mu.Lock()
	chunks := append([]pmem.Addr(nil), l.chunks...)
	tail := l.tailOff
	l.mu.Unlock()

	var out []Entry
	words := make([]uint64, l.m.chunkBytes/pmem.WordSize)
	for i, c := range chunks {
		limit := l.m.chunkBytes
		if i == len(chunks)-1 {
			limit = tail
		}
		if limit == 0 {
			continue
		}
		w := words[:limit/pmem.WordSize]
		t.ReadRange(c, w)
		out = decodeRecords(w, limit, out)
	}
	return out
}

// decodeRecords appends the valid entries found in the first limit bytes
// of w (a chunk image) to out. Unwritten slots and records whose check
// code does not bind key/value/timestamp together (torn appends, stale
// mixes on recycled chunks) are skipped.
func decodeRecords(w []uint64, limit int, out []Entry) []Entry {
	for off := 0; off+EntrySize <= limit; off += EntrySize {
		i := off / pmem.WordSize
		tick, ok := DecodeTimestamp(w[i], w[i+1], w[i+2])
		if !ok {
			continue
		}
		out = append(out, Entry{Key: w[i], Value: w[i+1], Timestamp: tick})
	}
	return out
}

// ReadEntriesInChunks scans the given raw chunks (e.g. after a restart
// when the Log object is gone) yielding the valid entries (see
// decodeRecords for what is skipped). It is ReadEntryPart's one-part
// scan.
func ReadEntriesInChunks(t *pmem.Thread, chunks []pmem.Addr, chunkBytes int) []Entry {
	ents, _ := ReadEntryPart(t, chunks, chunkBytes, 0, 1)
	return ents
}

// ReadEntryPart scans part p of n of the given raw chunks: their record
// slots, in chunk order, cut into n ranges whose sizes differ by at most
// one record. The n parts, concatenated in order, are the whole scan, so
// n threads can share a chunk set evenly however few chunks it holds. A
// chunk's tail shorter than a record is never read. Beside the valid
// entries it returns, for each, the index in chunks of the chunk that
// holds it.
func ReadEntryPart(t *pmem.Thread, chunks []pmem.Addr, chunkBytes, p, n int) ([]Entry, []int32) {
	per := chunkBytes / EntrySize
	total := len(chunks) * per
	lo, hi := p*total/n, (p+1)*total/n
	var out []Entry
	var in []int32
	w := make([]uint64, min(hi-lo, per)*EntrySize/pmem.WordSize)
	for r := lo; r < hi; {
		first := r % per
		cnt := min(per-first, hi-r)
		words := w[:cnt*EntrySize/pmem.WordSize]
		t.ReadRange(chunks[r/per].Add(int64(first*EntrySize)), words)
		out = decodeRecords(words, cnt*EntrySize, out)
		for len(in) < len(out) {
			in = append(in, int32(r/per))
		}
		r += cnt
	}
	return out, in
}
