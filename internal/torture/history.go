package torture

// OpKind identifies one workload operation.
type OpKind uint8

const (
	OpUpsert OpKind = iota
	OpDelete
	OpLookup
	OpScan
)

func (k OpKind) String() string {
	switch k {
	case OpUpsert:
		return "upsert"
	case OpDelete:
		return "delete"
	case OpLookup:
		return "lookup"
	case OpScan:
		return "scan"
	}
	return "?"
}

// Op is one recorded operation in a worker's history. Invoke and Return
// are points on one sequence every worker of the run draws from, just
// before and just after the call: an op returned before another was
// invoked exactly when its Return is below the other's Invoke. The
// oracles judge by that observed order, never by the tree's own
// timestamps.
type Op struct {
	Worker int    `json:"worker"`
	Seq    int    `json:"seq"`
	Kind   OpKind `json:"kind"`
	Key    uint64 `json:"key"`
	// Value is the written value for upserts (deletes write the
	// tombstone, recorded as 0) and the observed value for lookups.
	Value uint64 `json:"value"`
	// Found is the lookup outcome (meaningless for writes).
	Found bool `json:"found,omitempty"`
	// Observed records a scan's returned key/value pairs, so the read
	// oracle can attribute each one to a write whose real-time window
	// is consistent with the scan's.
	Observed [][2]uint64 `json:"observed,omitempty"`
	Invoke   uint64      `json:"invoke"`
	Return   uint64      `json:"return,omitempty"`
	// Done marks operations whose call returned normally; an undone op
	// was in flight when the power failed and may land atomically or
	// not at all.
	Done bool `json:"done"`
}

// isWrite reports whether the op mutates its key's register (deletes
// write the tombstone, i.e. "absent").
func (o *Op) isWrite() bool { return o.Kind == OpUpsert || o.Kind == OpDelete }

// writtenValue is the register value the op installs: the payload for
// upserts, absent (0) for deletes.
func (o *Op) writtenValue() uint64 {
	if o.Kind == OpDelete {
		return 0
	}
	return o.Value
}

// history is one round's merged op log plus the per-key index the
// oracle consumes.
type history struct {
	ops     []Op
	writes  map[uint64][]*Op // key -> writes, any order
	lookups []*Op
	scans   []*Op
}

func newHistory(perWorker [][]Op) *history {
	h := &history{writes: map[uint64][]*Op{}}
	for _, ws := range perWorker {
		h.ops = append(h.ops, ws...)
	}
	for i := range h.ops {
		op := &h.ops[i]
		switch {
		case op.isWrite():
			h.writes[op.Key] = append(h.writes[op.Key], op)
		case op.Kind == OpLookup && op.Done:
			h.lookups = append(h.lookups, op)
		case op.Kind == OpScan && op.Done:
			h.scans = append(h.scans, op)
		}
	}
	return h
}
