package persist

// dataflow.go runs two forward may-analyses over a function's CFG.
//
// Obligations: a Store/WriteRange opens a flush obligation on its
// thread; a Flush discharges stores and opens a fence obligation; a
// Fence discharges flushes; Persist discharges both. The analysis is
// path-sensitive at the branching level — join is set union — so an
// obligation still open on ANY path reaching the function exit is a
// finding (PL001/PL002), which makes early returns, divergent
// branches, and loop back edges sound where the old position-ordered
// check was not. Obligations are per thread key and address-
// insensitive (any Flush on the thread discharges its stores), which
// matches how the batched leaf-flush code is written.
//
// Held locks: an acquire of a declared class while any held class has
// equal or higher rank is a PL006 inversion. Deferred unlocks are
// ignored — a lock held to return cannot invert anything after the
// last acquire.

import (
	"fmt"
	"go/token"
	"sort"
	"strings"
)

// Obligation kinds.
const (
	obStore = iota // awaiting Flush/Persist → PL001 if it survives
	obFlush        // awaiting Fence/Persist → PL002 if it survives
	obScope        // PushScope awaiting PopScope → PL012 if it survives
	obSeq          // seqlock version load awaiting its re-check → PL010
)

// obl is one open obligation. Seeds used for interprocedural summaries
// carry negative origins and are never reported.
type obl struct {
	origin token.Pos
	key    string
	kind   int
	method string // Store/WriteRange/Flush, for the message
}

type oblSet map[obl]struct{}

func (s oblSet) clone() oblSet {
	out := make(oblSet, len(s))
	for o := range s {
		out[o] = struct{}{}
	}
	return out
}

// addAll unions src into dst, reporting whether dst grew.
func (dst oblSet) addAll(src oblSet) bool {
	grew := false
	for o := range src {
		if _, ok := dst[o]; !ok {
			dst[o] = struct{}{}
			grew = true
		}
	}
	return grew
}

func (s oblSet) killKey(key string, kind int) {
	for o := range s {
		if o.key == key && o.kind == kind {
			delete(s, o)
		}
	}
}

// applyObl is the transfer function for one event.
func (fa *funcAnalysis) applyObl(s oblSet, e event) {
	switch e.kind {
	case evStore:
		s[obl{origin: e.pos, key: e.key, kind: obStore, method: e.method}] = struct{}{}
	case evFlush:
		s.killKey(e.key, obStore)
		s[obl{origin: e.pos, key: e.key, kind: obFlush, method: "Flush"}] = struct{}{}
	case evFence:
		s.killKey(e.key, obFlush)
	case evPersist:
		s.killKey(e.key, obStore)
		s.killKey(e.key, obFlush)
	case evEADR:
		// Inside the eADR persistence domain stores are durable at
		// retirement: nothing on this path needs flushing. Scope and
		// seqlock obligations are not persistence state and survive.
		for o := range s {
			if o.kind == obStore || o.kind == obFlush {
				delete(s, o)
			}
		}
	case evScopePush:
		s[obl{origin: e.pos, key: e.key, kind: obScope, method: "PushScope"}] = struct{}{}
	case evScopePop:
		s.killKey(e.key, obScope)
	case evSeqBegin:
		s.killKey(e.key, obSeq) // a fresh load supersedes the prior session
		s[obl{origin: e.pos, key: e.key, kind: obSeq, method: "Load"}] = struct{}{}
	case evSeqRecheck:
		s.killKey(e.key, obSeq)
	case evSeqValid:
		// A write-in-progress test on the saved version splits the
		// protocol: the invalid path bails without reading data and owes
		// no re-check. Events are path-insensitive, so the test excuses
		// both edges — the re-check's existence is still enforced
		// syntactically by checkSeqlock.
		for o := range s {
			if o.kind == obSeq && strings.HasSuffix(o.key, "|"+e.key) {
				delete(s, o)
			}
		}
	case evKillVar:
		// A seqlock session keyed on a rebound variable (loop iteration
		// rebinding the slot or the saved version) cannot be re-checked
		// any more — and demanding a re-check of a dead binding would be
		// a false positive on every early loop exit.
		for o := range s {
			if o.kind == obSeq && keyMentionsIdent(o.key, e.key) {
				delete(s, o)
			}
		}
	case evCall:
		sum, ok := fa.an.callSummary(e.calleeKeys)
		if !ok {
			return
		}
		for _, k := range e.threadArgs {
			if sum.coversFlush {
				s.killKey(k, obFlush)
				if sum.coversStore {
					s.killKey(k, obStore)
				}
			}
		}
	}
}

// oblFixpoint computes the set of obligations possibly open on entry
// to each node, starting from seeds at the function entry.
func (fa *funcAnalysis) oblFixpoint(g *cfg, seeds oblSet) []oblSet {
	in := make([]oblSet, len(g.nodes))
	for i := range in {
		in[i] = oblSet{}
	}
	in[g.entry.id] = seeds.clone()

	// Worklist from the entry: a node runs when first reached and again
	// whenever its in-set grows. Unreachable nodes (dead code after a
	// return or terminator call) are never processed, so their events
	// cannot leak obligations into the exit.
	reached := make([]bool, len(g.nodes))
	queued := make([]bool, len(g.nodes))
	work := []*cfgNode{g.entry}
	reached[g.entry.id] = true
	queued[g.entry.id] = true
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		queued[n.id] = false
		out := in[n.id].clone()
		for _, e := range n.events {
			fa.applyObl(out, e)
		}
		for _, succ := range n.succs {
			grew := in[succ.id].addAll(out)
			if (grew || !reached[succ.id]) && !queued[succ.id] {
				reached[succ.id] = true
				queued[succ.id] = true
				work = append(work, succ)
			}
		}
	}
	return in
}

// exitResidue applies a node's own events plus the deferred events
// (LIFO) to its entry set, yielding what is still open at return.
func (fa *funcAnalysis) exitResidue(g *cfg, in []oblSet) oblSet {
	s := in[g.exit.id].clone()
	for i := len(g.deferred) - 1; i >= 0; i-- {
		fa.applyObl(s, g.deferred[i])
	}
	return s
}

// checkObligations reports the obligations open at exit: PL001/PL002
// for unpersisted stores and unfenced flushes, PL012 for unpopped
// scopes and PL010 for unre-checked seqlock reads.
func (fa *funcAnalysis) checkObligations(g *cfg, emit func(code string, pos token.Pos, msg string)) {
	in := fa.oblFixpoint(g, oblSet{})
	for _, n := range g.nodes {
		for _, e := range n.events {
			if e.kind == evScopePush {
				fa.an.scopeSites[e.pos] = true
			}
		}
	}

	// Residue at exit, reported at the origin site.
	residue := fa.exitResidue(g, in)
	var open []obl
	for o := range residue {
		if o.origin.IsValid() {
			open = append(open, o)
		}
	}
	sort.Slice(open, func(i, j int) bool { return open[i].origin < open[j].origin })
	for _, o := range open {
		switch o.kind {
		case obStore:
			emit(CodeStoreNoPersist, o.origin, fmt.Sprintf(
				"%s.%s to PM with a path to return with no %s.Flush/Persist: the store is volatile under ADR", o.key, o.method, o.key))
		case obFlush:
			emit(CodeFlushNoFence, o.origin, fmt.Sprintf(
				"%s.Flush with a path to return with no %s.Fence/Persist: the clwb never retires", o.key, o.key))
		case obScope:
			emit(CodeScopeBalance, o.origin, fmt.Sprintf(
				"%s.PushScope with a path to return with no matching %s.PopScope (defers included): the thread leaks the scope to its next unrelated work", o.key, o.key))
		case obSeq:
			if fa.seqQualified[o.key] {
				base, _, _ := strings.Cut(o.key, "|")
				emit(CodeSeqlock, o.origin, fmt.Sprintf(
					"seqlock read of %s has a path to return that never re-checks %s.Load() against the saved version: a concurrent writer can hand this path torn data", base, base))
			}
		}
	}
}

// keyMentionsIdent reports whether ident appears as a full dotted or
// bar-separated segment of a fact key ("s.seq|seq" mentions "s" and
// "seq" but not "eq").
func keyMentionsIdent(key, ident string) bool {
	for _, part := range strings.FieldsFunc(key, func(r rune) bool { return r == '.' || r == '|' }) {
		if part == ident {
			return true
		}
	}
	return false
}

// --- lock-order analysis ------------------------------------------------

// heldSet maps lock class → position of the (earliest) live acquire.
type heldSet map[string]token.Pos

func (s heldSet) clone() heldSet {
	out := make(heldSet, len(s))
	for c, p := range s {
		out[c] = p
	}
	return out
}

func (dst heldSet) addAll(src heldSet) bool {
	grew := false
	for c, p := range src {
		if q, ok := dst[c]; !ok || p < q {
			if !ok {
				grew = true
			} else if p < q {
				grew = true
			}
			dst[c] = p
		}
	}
	return grew
}

// applyLock is the lock transfer function. check, when non-nil,
// receives (acquiring class, its position, held set, acquisition
// chain) — chain is nil for a direct or one-hop acquire (PL006) and
// the display-name call path for a deeper transitive one (PL014).
func (fa *funcAnalysis) applyLock(s heldSet, e event, check func(class string, pos token.Pos, held heldSet, chain []string)) {
	switch e.kind {
	case evLock:
		if check != nil {
			check(e.class, e.pos, s, nil)
		}
		if _, ok := s[e.class]; !ok {
			s[e.class] = e.pos
		}
	case evUnlock:
		delete(s, e.class)
	case evCall:
		if check == nil {
			return
		}
		// One hop: classes any candidate callee acquires in its own body
		// must respect the order against what we hold (PL006, as the
		// one-level engine reported it). Deeper: classes reachable only
		// through the callee's transitive closure are PL014, reported
		// with the witness call chain so the path is actionable.
		direct := map[string]bool{}
		for _, key := range e.calleeKeys {
			for _, class := range fa.an.lockDirect[key] {
				if !direct[class] {
					direct[class] = true
					check(class, e.pos, s, nil)
				}
			}
		}
		deep := map[string]bool{}
		for _, key := range e.calleeKeys {
			for _, class := range fa.an.lockTrans[key] {
				if !direct[class] && !deep[class] {
					deep[class] = true
					check(class, e.pos, s, fa.an.lockChain(key, class))
				}
			}
		}
	}
}

// lockFixpoint computes the set of lock classes possibly held on entry
// to each node.
func (fa *funcAnalysis) lockFixpoint(g *cfg) []heldSet {
	in := make([]heldSet, len(g.nodes))
	for i := range in {
		in[i] = heldSet{}
	}
	reached := make([]bool, len(g.nodes))
	queued := make([]bool, len(g.nodes))
	work := []*cfgNode{g.entry}
	reached[g.entry.id] = true
	queued[g.entry.id] = true
	for len(work) > 0 {
		n := work[0]
		work = work[1:]
		queued[n.id] = false
		out := in[n.id].clone()
		for _, e := range n.events {
			fa.applyLock(out, e, nil)
		}
		for _, succ := range n.succs {
			grew := in[succ.id].addAll(out)
			if (grew || !reached[succ.id]) && !queued[succ.id] {
				reached[succ.id] = true
				queued[succ.id] = true
				work = append(work, succ)
			}
		}
	}
	return in
}

// checkLockOrder reports PL006 for acquires (direct or one call away)
// that violate the declared partial order, and PL014 for acquires
// buried deeper in the call graph, with the witness chain.
func (fa *funcAnalysis) checkLockOrder(g *cfg, in []heldSet, emit func(code string, pos token.Pos, msg string)) {
	seen := map[string]bool{}
	check := func(class string, pos token.Pos, held heldSet, chain []string) {
		key := fmt.Sprintf("%d|%s", pos, class)
		if seen[key] {
			return
		}
		var worst string
		for h := range held {
			if lockRank[h] >= lockRank[class] && (worst == "" || lockRank[h] > lockRank[worst] || (lockRank[h] == lockRank[worst] && h < worst)) {
				worst = h
			}
		}
		if worst != "" {
			seen[key] = true
			if chain == nil {
				emit(CodeLockOrder, pos, fmt.Sprintf(
					"acquiring %s while holding %s inverts the declared lock order %s", class, worst, lockOrderDecl))
			} else {
				emit(CodeLockOrderGraph, pos, fmt.Sprintf(
					"this call acquires %s (via %s) while holding %s, inverting the declared lock order %s", class, strings.Join(chain, " -> "), worst, lockOrderDecl))
			}
		}
	}
	for _, n := range g.nodes {
		s := in[n.id].clone()
		for _, e := range n.events {
			fa.applyLock(s, e, check)
		}
	}
}
