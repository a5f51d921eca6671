package core

import (
	"errors"
	"fmt"
)

// Sentinel errors for the write paths. Every rejection at the API
// boundary wraps one of these (fmt.Errorf with %w), so callers — and
// the public cclbtree package, which re-exports them — can classify
// failures with errors.Is instead of matching message strings.
var (
	// ErrZeroKey rejects key 0 (fixed mode) and the empty key (VarKV
	// mode): the zero key word is the tree's -infinity routing sentinel.
	ErrZeroKey = errors.New("zero key is reserved")
	// ErrVarKVRequired rejects variable-size operations on a tree that
	// stores fixed 8 B pairs.
	ErrVarKVRequired = errors.New("operation requires Options.VarKV")
	// ErrFixedKVRequired rejects fixed 8 B operations on a tree in
	// VarKV mode, where every key word must be an indirection pointer.
	ErrFixedKVRequired = errors.New("operation requires fixed 8 B mode (tree has Options.VarKV)")
	// ErrClosed rejects writes after Freeze.
	ErrClosed = errors.New("tree is closed")
)

// validateFixed is the one validator of the fixed-mode write entry
// points (Upsert, Delete, UpsertIndirect, UpsertLargeValue and every
// fixed ApplyBatch op): the tree must be open and not in VarKV mode, and
// key must lie in [1, MaxValue] — the top two bits tag indirection
// pointers and probes, and recovery drops a record whose key carries
// them. A put of an inline value (inline true) also needs value in
// [1, MaxValue]; deletes and the entry points whose value word is a blob
// pointer pass false.
func (w *Worker) validateFixed(op string, key, value uint64, inline bool) error {
	if w.tree.closed.Load() {
		return fmt.Errorf("core: %s: %w", op, ErrClosed)
	}
	if w.tree.opts.VarKV {
		return fmt.Errorf("core: %s: %w", op, ErrFixedKVRequired)
	}
	if key == 0 {
		return fmt.Errorf("core: %s: %w", op, ErrZeroKey)
	}
	if key > MaxValue {
		return fmt.Errorf("core: %s: key %#x outside [1, MaxValue]", op, key)
	}
	if inline && value == Tombstone {
		return fmt.Errorf("core: %s: value 0 is the tombstone; delete instead", op)
	}
	if inline && value > MaxValue {
		return fmt.Errorf("core: %s: value %#x exceeds MaxValue; use UpsertLargeValue", op, value)
	}
	return nil
}

// writableVar guards the VarKV single-write entry points.
func (w *Worker) writableVar(op string, key []byte) error {
	if w.tree.closed.Load() {
		return fmt.Errorf("core: %s: %w", op, ErrClosed)
	}
	if !w.tree.opts.VarKV {
		return fmt.Errorf("core: %s: %w", op, ErrVarKVRequired)
	}
	if len(key) == 0 {
		return fmt.Errorf("core: %s: %w", op, ErrZeroKey)
	}
	return nil
}
