// PL004 cases: *pmem.Thread is a single-owner handle; one crossing a
// goroutine boundary as an existing value (closure capture, go-call
// argument, channel send) can be raced between goroutines. Handing a
// freshly created thread to a new goroutine transfers ownership and is
// allowed.
package testdata

import "cclbtree/internal/pmem"

func goClosureCapture(t *pmem.Thread, a pmem.Addr) {
	go func() {
		t.Persist(a, 8) // want "PL004"
	}()
}

func goCallArg(t *pmem.Thread) {
	go consume(t) // want "PL004"
}

func consume(t *pmem.Thread) {}

func chanSend(t *pmem.Thread, ch chan *pmem.Thread) {
	ch <- t // want "PL004"
}

func (w *worker) goFieldCapture(a pmem.Addr) {
	go func() {
		w.t.Persist(a, 8)
	}()
}

func goFreshThreadHandoff(p *pmem.Pool) {
	go consume(p.NewThread(0))
}

func goOwnThreadInside(p *pmem.Pool, a pmem.Addr) {
	go func() {
		t := p.NewThread(0)
		t.Store(a, 1)
		t.Persist(a, 8)
	}()
}

func goShadowedParam(p *pmem.Pool, a pmem.Addr) {
	go func(t *pmem.Thread) {
		t.Store(a, 1)
		t.Persist(a, 8)
	}(p.NewThread(0))
}

// pmem.Parallel runs its body on goroutines of its own: a capture there
// is a capture by a goroutine closure.
func parallelCapture(t *pmem.Thread, a pmem.Addr) error {
	return pmem.Parallel(2, func(i int) error {
		t.Persist(a, 8) // want "PL004"
		return nil
	})
}

func parallelOwnThreads(p *pmem.Pool, a pmem.Addr) error {
	return pmem.Parallel(2, func(i int) error {
		t := p.NewThread(i)
		t.Store(a, 1)
		t.Persist(a, 8)
		return nil
	})
}
