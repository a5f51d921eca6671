package core

import "fmt"

// Variable-size operations (§4.4 Optimization #3). In VarKV mode every
// key and value is a PM blob addressed by an 8 B indirection pointer;
// the word-based machinery below the API is unchanged, which is exactly
// the paper's point: indirection-pointer updates still amplify, and the
// buffering design still absorbs them.

// KVBytes is one variable-size scan result.
type KVBytes struct {
	Key, Value []byte
}

func (w *Worker) requireVar(op string) error {
	if !w.tree.opts.VarKV {
		return fmt.Errorf("core: %s: %w", op, ErrVarKVRequired)
	}
	return nil
}

// UpsertVar inserts or updates a variable-size pair. key must be
// non-empty.
func (w *Worker) UpsertVar(key, value []byte) error {
	if err := w.writableVar("UpsertVar"); err != nil {
		return err
	}
	if len(key) == 0 {
		return fmt.Errorf("core: UpsertVar: %w", ErrZeroKey)
	}
	kw, err := w.blobs.write(w.t, key)
	if err != nil {
		return err
	}
	vw, err := w.blobs.write(w.t, value)
	if err != nil {
		return err
	}
	w.tree.ctr.upserts.Add(1)
	w.tree.pool.AddUserBytes(uint64(len(key) + len(value)))
	return w.writeOne(kw, vw)
}

// LookupVar finds the value for a variable-size key.
func (w *Worker) LookupVar(key []byte) ([]byte, bool) {
	if err := w.requireVar("LookupVar"); err != nil {
		return nil, false
	}
	w.tree.ctr.lookups.Add(1)
	kw := w.tempKeyWord(key)
	v, ok := w.lookupWord(kw)
	if !ok || v == Tombstone {
		return nil, false
	}
	return readBlob(w.t, v), true
}

// DeleteVar inserts a tombstone for a variable-size key.
func (w *Worker) DeleteVar(key []byte) error {
	if err := w.writableVar("DeleteVar"); err != nil {
		return err
	}
	if len(key) == 0 {
		return fmt.Errorf("core: DeleteVar: %w", ErrZeroKey)
	}
	kw, err := w.blobs.write(w.t, key)
	if err != nil {
		return err
	}
	w.tree.ctr.deletes.Add(1)
	w.tree.pool.AddUserBytes(uint64(len(key) + 8))
	return w.writeOne(kw, Tombstone)
}

// ScanVar collects up to max entries with key ≥ start in ascending
// byte order.
func (w *Worker) ScanVar(start []byte, max int) []KVBytes {
	if err := w.requireVar("ScanVar"); err != nil {
		return nil
	}
	kw := w.tempKeyWord(start)
	out := make([]KV, max)
	n := w.Scan(kw, max, out)
	res := make([]KVBytes, 0, n)
	for _, kv := range out[:n] {
		res = append(res, KVBytes{Key: readBlob(w.t, kv.Key), Value: readBlob(w.t, kv.Value)})
	}
	return res
}

// tempKeyWord registers key as the worker's probe so comparisons can
// resolve it from DRAM — read operations write nothing to PM.
func (w *Worker) tempKeyWord(key []byte) uint64 {
	w.probeKey = key
	return probeTag | uint64(w.id)
}

// UpsertIndirect stores a fixed 8 B key with a pre-built indirection
// pointer word (IsBlobWord must hold). Harnesses that manage their own
// value blobs use this to drive every index through one code path.
func (w *Worker) UpsertIndirect(key, pointerWord uint64) error {
	if err := w.validateFixed("UpsertIndirect", key, pointerWord, false); err != nil {
		return err
	}
	if !IsBlobWord(pointerWord) {
		return fmt.Errorf("core: %#x is not an indirection pointer", pointerWord)
	}
	w.tree.ctr.upserts.Add(1)
	w.tree.pool.AddUserBytes(16)
	return w.writeOne(key, pointerWord)
}

// UpsertLargeValue stores a fixed 8 B key with an out-of-band value
// blob — the Fig 15c configuration (8 B keys, 64–512 B values through
// indirection pointers). Works in fixed-key mode.
func (w *Worker) UpsertLargeValue(key uint64, value []byte) error {
	if err := w.validateFixed("UpsertLargeValue", key, 0, false); err != nil {
		return err
	}
	vw, err := w.blobs.write(w.t, value)
	if err != nil {
		return err
	}
	w.tree.ctr.upserts.Add(1)
	w.tree.pool.AddUserBytes(uint64(8 + len(value)))
	return w.writeOne(key, vw)
}

// LookupLargeValue fetches a value stored with UpsertLargeValue.
func (w *Worker) LookupLargeValue(key uint64) ([]byte, bool) {
	w.tree.ctr.lookups.Add(1)
	v, ok := w.lookupWord(key)
	if !ok || v == Tombstone {
		return nil, false
	}
	return decodeValueWord(w.t, v), true
}
