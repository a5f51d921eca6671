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

// validateOp is the one validator of every write, alone (Write) or in
// a group (ApplyBatch), run before any side effect. The tree must be
// open. Another directory's words are raw (Rebuild.words): its op needs
// a nonzero key and, for a put, a value other than the tombstone. In
// VarKV mode the key is nonempty KeyBytes and no word is set. In fixed
// mode the key lies in [1, MaxValue] — the top two bits tag indirection
// pointers and probes, and recovery drops a record whose key carries
// them — and a put's value is an inline word in [1, MaxValue], or
// ValueBytes (word 0) for materialize to write as a blob, or a tagged
// pointer when indirect says the caller is UpsertIndirect.
func (w *Worker) validateOp(op *BatchOp, indirect bool) error {
	tr := w.tree
	_, tree := tr.index.(treeDir)
	switch {
	case tr.closed.Load():
		return opErr(op, "%w", ErrClosed)
	case !tree:
		if op.Key == 0 {
			return opErr(op, "%w", ErrZeroKey)
		}
	case tr.opts.VarKV:
		if op.Key != 0 || op.Value != 0 {
			return opErr(op, "fixed-word op: %w", ErrFixedKVRequired)
		}
		if len(op.KeyBytes) == 0 {
			return opErr(op, "%w", ErrZeroKey)
		}
		return nil
	case op.KeyBytes != nil:
		return opErr(op, "byte-slice key: %w", ErrVarKVRequired)
	case op.Key == 0:
		return opErr(op, "%w", ErrZeroKey)
	case op.Key > MaxValue:
		return opErr(op, "key %#x outside [1, MaxValue]", op.Key)
	}
	switch {
	case op.Delete, tree && op.Value == 0 && op.ValueBytes != nil: // a tombstone; a blob to write
		return nil
	case op.Value == Tombstone:
		return opErr(op, "value 0 is the tombstone; delete instead")
	case !tree:
		return nil
	case op.ValueBytes != nil:
		return opErr(op, "value word %#x beside value bytes", op.Value)
	case indirect && !IsBlobWord(op.Value):
		return opErr(op, "%#x is not an indirection pointer", op.Value)
	case !indirect && op.Value > MaxValue:
		return opErr(op, "value %#x exceeds MaxValue; store it as a large value", op.Value)
	}
	return nil
}

// opErr wraps a rejection of op, named by its kind.
func opErr(op *BatchOp, format string, a ...any) error {
	kind := "put"
	if op.Delete {
		kind = "delete"
	}
	return fmt.Errorf("core: "+kind+": "+format, a...)
}
