package core

import (
	"slices"

	"cclbtree/internal/obs"
)

// Variable-size operations (§4.4 Optimization #3). In VarKV mode every
// key and value is a PM blob addressed by an 8 B indirection pointer;
// the word-based machinery below the API is unchanged, which is exactly
// the paper's point: indirection-pointer updates still amplify, and the
// buffering design still absorbs them.

// KVBytes is one variable-size scan result.
type KVBytes struct {
	Key, Value []byte
}

// LookupVar finds the value for a variable-size key.
func (w *Worker) LookupVar(key []byte) ([]byte, bool) {
	v, n := w.read(obs.EvLookup, true, w.tempKeyWord(key), nil)
	if n == 0 {
		return nil, false
	}
	return readBlob(w.t, v), true
}

// scanVarPage is how many entries ScanVar pulls per scan of the tree, so
// its word-form scratch is bounded however large max is.
const scanVarPage = 128

// ScanVar collects up to max entries with key ≥ start in ascending
// byte order; none when max <= 0.
func (w *Worker) ScanVar(start []byte, max int) []KVBytes {
	if max <= 0 {
		return nil
	}
	var res []KVBytes
	page := make([]KV, min(max, scanVarPage))
	for {
		page = page[:min(len(page), max-len(res))]
		_, n := w.read(obs.EvScan, true, w.tempKeyWord(start), page)
		res = slices.Grow(res, n)
		for _, kv := range page[:n] {
			res = append(res, KVBytes{Key: readBlob(w.t, kv.Key), Value: readBlob(w.t, kv.Value)})
		}
		if n < len(page) || len(res) == max {
			return res
		}
		// The next page resumes at the last key's successor in byte
		// order: the key with a zero byte appended.
		start = append(slices.Clip(res[len(res)-1].Key), 0)
	}
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
	return w.Write(&BatchOp{Key: key, Value: pointerWord}, true)
}

// LookupLargeValue fetches a value stored as a blob from a fixed put's
// ValueBytes.
func (w *Worker) LookupLargeValue(key uint64) ([]byte, bool) {
	v, n := w.read(obs.EvLookup, false, key, nil)
	if n == 0 {
		return nil, false
	}
	return decodeValueWord(w.t, v), true
}
