package cclbtree

import "cclbtree/internal/core"

// Batch stages a group of writes for Session.Apply. The zero value is
// ready to use; Reset recycles the backing storage across groups.
//
// A batch holds either fixed 8 B ops (Put/Delete) or variable-size ops
// (PutVar/DeleteVar), matching the tree's mode. Each staged op is
// checked by the validator the single writes pass, so Apply rejects an
// op with the error the matching single write returns (ErrZeroKey,
// ErrVarKVRequired, ErrFixedKVRequired, ...), and it rejects the whole
// group before any side effect. Byte slices passed to PutVar/DeleteVar
// are retained, not copied: the caller must not modify them until
// Apply returns.
type Batch struct {
	ops []core.BatchOp
}

// Put stages a fixed 8 B insert or update.
func (b *Batch) Put(key, value uint64) *Batch {
	b.ops = append(b.ops, core.BatchOp{Key: key, Value: value})
	return b
}

// Delete stages a fixed 8 B delete (tombstone insertion).
func (b *Batch) Delete(key uint64) *Batch {
	b.ops = append(b.ops, core.BatchOp{Key: key, Delete: true})
	return b
}

// PutVar stages a variable-size insert or update. key and value are
// retained until Apply returns.
func (b *Batch) PutVar(key, value []byte) *Batch {
	b.ops = append(b.ops, core.BatchOp{KeyBytes: key, ValueBytes: value})
	return b
}

// DeleteVar stages a variable-size delete. key is retained until Apply
// returns.
func (b *Batch) DeleteVar(key []byte) *Batch {
	b.ops = append(b.ops, core.BatchOp{KeyBytes: key, Delete: true})
	return b
}

// Len reports the number of staged ops.
func (b *Batch) Len() int { return len(b.ops) }

// Reset clears the batch, keeping the backing storage for reuse.
func (b *Batch) Reset() { b.ops = b.ops[:0] }

// Apply applies every staged op with one WAL group commit per shard:
// the ops are split by the route single writes take (key hash), each
// shard's slice is sorted by key, all its log records are persisted
// under a single fence (instead of one fence per op), and ops landing
// on the same leaf share one buffer-flush. On a batch of N ops this
// saves N−1 fences (per shard) and turns N same-leaf trigger writes
// into one leaf write — the source of group commit's throughput and
// write-amplification win (see the "Batched writes" section of the
// README). A shard's slice of one op runs exactly as Put/Delete do.
//
// Durability is the same as issuing the ops individually: when Apply
// returns every op is durable, and ops to the same key take effect in
// staging order (a key's ops always land on one shard, in order).
// Crash atomicity is per-op, not per-batch — a power failure during
// Apply durably keeps each op independently (the batch is not a
// transaction). Validation runs on every shard's slice before any
// shard's commit starts, so a rejected batch (ErrZeroKey, mode
// mismatch, ErrClosed, ...) leaves the whole DB untouched. The batch
// itself is not consumed; call Reset to reuse it.
func (s *Session) Apply(b *Batch) error {
	if b == nil {
		return nil
	}
	if len(s.ws) == 1 {
		return s.ws[0].ApplyBatch(b.ops)
	}
	perShard := s.perShard
	for i := range perShard {
		perShard[i] = perShard[i][:0]
	}
	for i := range b.ops {
		shard := s.db.shardOf(&b.ops[i])
		perShard[shard] = append(perShard[shard], b.ops[i])
	}
	// All-or-nothing validation across shards, then commit shard by
	// shard. Serial-clock discipline as everywhere in the session: the
	// per-shard commits happen one after another in virtual time (the
	// server's commit lanes are what overlap them).
	for shard, ops := range perShard {
		if len(ops) == 0 {
			continue
		}
		if err := s.ws[shard].ValidateBatch(ops); err != nil {
			return err
		}
	}
	for shard, ops := range perShard {
		if len(ops) == 0 {
			continue
		}
		w := s.worker(shard)
		err := w.ApplyBatch(ops)
		s.settle(w)
		if err != nil {
			return err
		}
	}
	return nil
}
