package prim

import (
	"fmt"

	"cclbtree/internal/index"
	"cclbtree/internal/pmem"
)

// Factory adapts a baseline constructor to index.Factory.
func Factory[T index.Index](newTree func(*pmem.Pool) (T, error)) index.Factory {
	return func(pool *pmem.Pool) (index.Index, error) { return newTree(pool) }
}

// Ops is a baseline's data path with every operation charged to an
// explicit PM thread. Bind turns it into per-goroutine handles.
type Ops interface {
	Name() string
	Upsert(t *pmem.Thread, key, value uint64) error
	Lookup(t *pmem.Thread, key uint64) (uint64, bool)
	Delete(t *pmem.Thread, key uint64) error
	Scan(t *pmem.Thread, start uint64, max int, out []index.KV) int
}

// Bind returns the index.Handle running ops on t. Its Upsert rejects
// the reserved key 0.
func Bind(ops Ops, t *pmem.Thread) index.Handle { return handle{ops, t} }

type handle struct {
	ops Ops
	t   *pmem.Thread
}

func (h handle) Thread() *pmem.Thread { return h.t }

func (h handle) Upsert(key, value uint64) error {
	if key == 0 {
		return fmt.Errorf("%s: key 0 is reserved", h.ops.Name())
	}
	return h.ops.Upsert(h.t, key, value)
}

func (h handle) Lookup(key uint64) (uint64, bool) { return h.ops.Lookup(h.t, key) }
func (h handle) Delete(key uint64) error          { return h.ops.Delete(h.t, key) }
func (h handle) Scan(start uint64, max int, out []index.KV) int {
	return h.ops.Scan(h.t, start, max, out)
}
