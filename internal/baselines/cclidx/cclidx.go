// Package cclidx adapts CCL-BTree to the common index.Index interface
// so the benchmark harness drives it like every comparison target. It
// sits on the public cclbtree API — the harness exercises exactly the
// surface users get.
package cclidx

import (
	"cclbtree"
	"cclbtree/internal/index"
	"cclbtree/internal/obs"
	"cclbtree/internal/pmem"
)

// Tree wraps a public cclbtree.DB as an index.Index.
type Tree struct {
	db   *cclbtree.DB
	name string
}

// Factory returns an index.Factory with the given tree config. The
// name distinguishes ablation variants ("CCL-BTree", "Base", "+BNode").
func Factory(name string, cfg cclbtree.Config) index.Factory {
	return func(pool *pmem.Pool) (index.Index, error) {
		db, err := cclbtree.NewOnPool(pool, cfg)
		if err != nil {
			return nil, err
		}
		return &Tree{db: db, name: name}, nil
	}
}

// Default is the paper-default CCL-BTree factory.
func Default() index.Factory { return Factory("CCL-BTree", cclbtree.Config{}) }

// DB exposes the wrapped public tree (counters, GC control, recovery
// experiments).
func (t *Tree) DB() *cclbtree.DB { return t.db }

// Name implements index.Index.
func (t *Tree) Name() string { return t.name }

// NewHandle implements index.Index.
func (t *Tree) NewHandle(socket int) index.Handle {
	return handle{s: t.db.Session(socket)}
}

// MemoryUsage implements index.Index.
func (t *Tree) MemoryUsage() (int64, int64) { return t.db.MemoryUsage() }

// Profile exposes the contention/heat profile so the bench harness
// attaches it to phase records (empty unless Config.Metrics is on).
// Shard 0's is the whole of it: the harness runs this index unsharded.
func (t *Tree) Profile() obs.Profile { return t.db.ShardProfile(0) }

// Close implements index.Index.
func (t *Tree) Close() { t.db.Close() }

type handle struct {
	s *cclbtree.Session
}

func (h handle) Upsert(key, value uint64) error {
	if cclbtree.IsIndirect(value) {
		// Harness-built indirection pointers (Fig 15c / Fig 18).
		return h.s.PutIndirect(key, value)
	}
	return h.s.Put(key, value)
}
func (h handle) Delete(key uint64) error { return h.s.Delete(key) }
func (h handle) Lookup(key uint64) (uint64, bool) {
	return h.s.Get(key)
}

func (h handle) Scan(start uint64, max int, out []index.KV) int {
	tmp := make([]cclbtree.KV, max)
	n := h.s.Scan(start, tmp)
	for i := 0; i < n; i++ {
		out[i] = index.KV{Key: tmp[i].Key, Value: tmp[i].Value}
	}
	return n
}

func (h handle) Thread() *pmem.Thread { return h.s.Thread() }
