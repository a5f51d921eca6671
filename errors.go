package cclbtree

import (
	"errors"

	"cclbtree/internal/core"
)

// Sentinel errors returned (wrapped) by the write paths. Every write —
// Put, Delete, PutVar, DeleteVar, PutLargeValue, PutIndirect and each op
// of an Apply — passes one validator, so a malformed op returns the same
// sentinel alone and in a batch. Check with errors.Is; the wrapped
// messages carry the operation kind (put or delete).
var (
	// ErrZeroKey reports a zero fixed key or an empty variable key.
	// Zero is reserved: it is the probe sentinel in fixed mode and an
	// empty blob has no indirection word in VarKV mode.
	ErrZeroKey = core.ErrZeroKey

	// ErrVarKVRequired reports a variable-size operation (PutVar,
	// DeleteVar, a byte-slice Batch op, ...) on a tree built without
	// Config.VarKV.
	ErrVarKVRequired = core.ErrVarKVRequired

	// ErrFixedKVRequired reports a fixed 8 B operation (Put, Delete,
	// a word Batch op, ...) on a tree built with Config.VarKV.
	ErrFixedKVRequired = core.ErrFixedKVRequired

	// ErrClosed reports a write issued after Close.
	ErrClosed = core.ErrClosed
)

// Sentinel errors of the serving tier (internal/server, cmd/cclserve).
// They live here rather than in the server package so clients checking
// errors.Is need only the public API.
var (
	// ErrShardClosed reports an operation routed to a shard whose
	// commit lane has shut down (server draining or already stopped).
	ErrShardClosed = errors.New("cclbtree: shard closed")

	// ErrBackpressure reports an operation rejected because the target
	// shard's coalescing queue is full. The client should back off and
	// retry; open-loop load generators count these as shed load.
	ErrBackpressure = errors.New("cclbtree: backpressure: shard queue full")
)
