package core

import (
	"strings"
	"testing"

	"cclbtree/internal/pmem"
)

// TestLockRankStrict checks the strict-mode lock-order check: taking
// stw inside workersMu, or inner.mu inside gcMu (a rank tie), panics
// and names both classes; the declared nesting stw → workersMu →
// chunkdir.mu does not. Each case runs alone, where the outer hold is
// the anonymous first one and the check fires at its release, and
// beside another goroutine's hold, where the outer hold is known and
// the check fires at the inner acquire. A non-strict pool checks
// nothing.
func TestLockRankStrict(t *testing.T) {
	tr, _ := newTestTree(t, Options{GC: GCOff}, nil)
	other, _ := newTestTree(t, Options{GC: GCOff}, nil)
	lax, _ := newTestTree(t, Options{GC: GCOff}, func(c *pmem.Config) { c.StrictPersist = false })
	cases := []struct {
		name string
		nest func(tr *Tree)
		want string // what the panic says; "": no panic
	}{
		{"workersMu->stw", func(tr *Tree) {
			defer tr.workersMu.unlock(tr.workersMu.lock())
			tr.stw.runlock(tr.stw.rlock())
		}, "acquires stw while holding workersMu"},
		{"gcMu->inner.mu", func(tr *Tree) {
			defer tr.gcMu.unlock(tr.gcMu.lock())
			tr.inner.mu.unlock(tr.inner.mu.lock())
		}, "acquires inner.mu while holding gcMu"},
		{"stw->workersMu->chunkdir.mu", func(tr *Tree) {
			defer tr.stw.runlock(tr.stw.rlock())
			defer tr.workersMu.unlock(tr.workersMu.lock())
			tr.dir.mu.unlock(tr.dir.mu.lock())
		}, ""},
	}
	for _, c := range cases {
		for _, beside := range []bool{false, true} {
			name := c.name
			if beside {
				name += "/beside"
			}
			t.Run(name, func(t *testing.T) {
				if beside {
					// Another goroutine holds another tree's lock
					// throughout, so every hold below is known.
					held, done := make(chan struct{}), make(chan struct{})
					go func() {
						tok := other.gcMu.lock()
						held <- struct{}{}
						<-done
						other.gcMu.unlock(tok)
						held <- struct{}{}
					}()
					<-held
					defer func() { close(done); <-held }()
				}
				got := panicText(func() { c.nest(tr) })
				if c.want == "" && got != "" {
					t.Fatalf("legal nesting panicked: %s", got)
				}
				if !strings.Contains(got, c.want) {
					t.Fatalf("panic %q does not say %q", got, c.want)
				}
				if got := panicText(func() { c.nest(lax) }); got != "" {
					t.Fatalf("non-strict pool panicked: %s", got)
				}
			})
		}
	}
}

// panicText runs f and returns the text of its panic, or "".
func panicText(f func()) (msg string) {
	defer func() {
		if r := recover(); r != nil {
			msg, _ = r.(string)
			if msg == "" {
				msg = "non-string panic"
			}
		}
	}()
	f()
	return ""
}
