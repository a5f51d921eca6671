package core

import "cclbtree/internal/pmleaf"

// A wave flushes a set of locked nodes with two fences in all
// (DESIGN.md "Crash consistency"): the directory stages each node
// (Directory.Stage: its data words written and flushed), one fence
// makes every staged line's data durable, the directory publishes each
// node (Directory.Publish: its stamp and header written and flushed),
// and one more fence makes the headers durable. No crash can observe a
// fence between the data of two nodes: a node's records stay in the log
// until its header, stamped above them, is durable, so a record is
// either gated by a durable stamp over durable data or replayed again.
// A node stays locked from its Stage until its wave's last fence.
//
// Every flush of the engine is a wave: a single write, a GC flush, a
// merge and a split's follow-up are waves of one, with the fences of
// the paper's protocol (§4.2), and so is a replayed group that
// overflows its buffer; a group's trigger writes share one wave.

// Staged is one node of a wave between its two halves.
type Staged struct {
	// Img is the node's line as Stage left it; Publish stamps it and
	// writes its header.
	Img pmleaf.Image
	// Shared is set when the wave publishes other headers under the same
	// last fence. A power failure can then tear a published header that
	// is not yet fenced, and a line's words drain front to back: its
	// meta word may land without the stamp and fingerprints behind it.
	// Stage therefore writes the fingerprints of the slots it fills with
	// the data (unused while those slots are free), so a torn header
	// only ever shows the new bitmap under the old stamp, and recovery
	// replays the line's records into it again, idempotently.
	Shared bool
	// Flushed is set by a Stage that flushed data the wave must fence.
	Flushed bool
	// Done is set by a Stage that published the node itself, ordering
	// its own persists (a split); Publish is not called for it.
	Done bool
	// Live is the node's live KV count once published; under half a
	// leaf the engine tries a merge.
	Live int
	// Aux is the directory's own state between the halves.
	Aux any
	n   *Node
}

// stage stages batch into n, which the caller holds locked, as the next
// node of the worker's wave, and returns its index there. A node whose
// Stage fails leaves the wave.
func (w *Worker) stage(n *Node, batch []KV, shared bool) (int, error) {
	w.wave = append(w.wave, Staged{Shared: shared, n: n})
	i := len(w.wave) - 1
	err := w.tree.index.Stage(w, n, &w.wave[i], batch)
	if err != nil {
		w.wave = w.wave[:i]
	}
	return i, err
}

// publish ends the worker's wave: a fence over the staged data, the
// headers, a fence over the headers. The staged nodes stay readable in
// w.wave until the next wave starts (w.wave = w.wave[:0]).
func (w *Worker) publish() {
	flushed, published := false, false
	for i := range w.wave {
		flushed = flushed || w.wave[i].Flushed
	}
	if flushed {
		w.t.Fence()
	}
	for i := range w.wave {
		if s := &w.wave[i]; !s.Done {
			w.tree.index.Publish(w, s.n, s)
			published = true
		}
	}
	if published {
		w.t.Fence()
	}
}
