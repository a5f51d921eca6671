package torture

import (
	"fmt"
	"sort"
)

// The durable-prefix linearizability oracle.
//
// The workload is a set of per-key registers written blindly (every
// written value is globally unique, so a recovered word identifies the
// exact write that produced it). After a crash and recovery, the state
// of key k must be explainable as the latest write in SOME
// linearization of k's history that is consistent with real time and
// with durability:
//
//   - every write that RETURNED before the power failure is durable —
//     it may only be superseded by another write, never silently lost;
//   - a write in flight at the failure is atomic: its value is either
//     fully there or fully absent, and it may legally linearize after
//     completed writes it overlapped;
//   - a value is never fabricated: the recovered word must match a
//     write that was actually invoked (or the key's pre-round state).
//
// Concretely, the recovered value must equal the value of a candidate
// write that is not *overwritten*: w is overwritten when some completed
// write w' was invoked after w returned, in the order the harness
// observed (Op.Invoke and Op.Return draw from one sequence shared by
// every worker, around each call). In-flight writes have no return
// point, so nothing follows them; the pre-round state is treated as a
// virtual write that returned before everything.

// Violation is one oracle finding.
type Violation struct {
	Round  int    `json:"round"`
	Key    uint64 `json:"key"`
	Got    uint64 `json:"got"`
	Reason string `json:"reason"`
	// Candidates lists the values the oracle would have accepted.
	Candidates []uint64 `json:"candidates,omitempty"`
}

func (v Violation) String() string {
	return fmt.Sprintf("round %d key %#x: %s (recovered %#x, acceptable %v)",
		v.Round, v.Key, v.Reason, v.Got, v.Candidates)
}

// checkDurablePrefix validates one round's recovered state against the
// history. baseline is the durable state the round started from (the
// previous recovery's snapshot; absent keys omitted). recovered is the
// post-recovery snapshot, value 0 meaning absent.
func checkDurablePrefix(baseline map[uint64]uint64, h *history, recovered map[uint64]uint64, round int) []Violation {
	keys := map[uint64]bool{}
	for k := range baseline {
		keys[k] = true
	}
	for k := range h.writes {
		keys[k] = true
	}
	for k := range recovered {
		keys[k] = true
	}
	ordered := make([]uint64, 0, len(keys))
	for k := range keys {
		ordered = append(ordered, k)
	}
	sort.Slice(ordered, func(i, j int) bool { return ordered[i] < ordered[j] })

	var out []Violation
	for _, k := range ordered {
		got := recovered[k]
		writes := h.writes[k]

		// ruledOut: w (a completed write or the virtual initial state,
		// returned at ret) is overwritten when a completed write was
		// invoked after ret.
		ruledOut := func(ret uint64, self *Op) bool {
			for _, w := range writes {
				if w != self && w.Done && w.Invoke > ret {
					return true
				}
			}
			return false
		}

		var accept []uint64
		seen := map[uint64]bool{}
		add := func(v uint64) {
			if !seen[v] {
				seen[v] = true
				accept = append(accept, v)
			}
		}
		if !ruledOut(0, nil) {
			add(baseline[k]) // virtual initial write (0 = absent)
		}
		for _, w := range writes {
			if w.Done && ruledOut(w.Return, w) {
				continue
			}
			add(w.writtenValue())
		}

		if !seen[got] {
			reason := "recovered value matches no invoked write (fabricated or torn)"
			if wasEverWritten(writes, baseline, k, got) {
				reason = "lost update: a later completed write overwrote this value"
			}
			out = append(out, Violation{
				Round: round, Key: k, Got: got,
				Reason: reason, Candidates: accept,
			})
		}
	}
	return out
}

// wasEverWritten distinguishes "stale but real" from "fabricated".
func wasEverWritten(writes []*Op, baseline map[uint64]uint64, k, v uint64) bool {
	if v == 0 || baseline[k] == v {
		return true // absent / pre-round state is always "real"
	}
	for _, w := range writes {
		if w.writtenValue() == v {
			return true
		}
	}
	return false
}

// checkReads validates completed lookups against the set of values
// that were ever installed for their key: a read must never observe a
// value no write produced (fabrication, torn exposure, or cross-key
// leakage). everWritten accumulates across rounds; baseline covers the
// round's starting state.
func checkReads(h *history, everWritten map[uint64]map[uint64]bool, round int) []Violation {
	var out []Violation
	for _, op := range h.lookups {
		if !op.Found {
			continue
		}
		if vs := everWritten[op.Key]; vs == nil || !vs[op.Value] {
			out = append(out, Violation{
				Round: round, Key: op.Key, Got: op.Value,
				Reason: fmt.Sprintf("worker %d lookup observed a value never written to this key", op.Worker),
			})
		}
	}
	return out
}

// checkReadLinearizability validates every completed optimistic read
// (lookup or scan observation) against real-time order: the value a
// read r observed for key k must be attributable to a write w whose
// invoke/return window is consistent with r's window —
//
//   - w was not invoked after r returned (a read cannot see the
//     future), and
//   - w was not overwritten before r began: no completed write w′ was
//     invoked after w returned AND returned before r was invoked.
//
// "After" and "before" are the order the harness observed: every
// Invoke and Return draws from one sequence shared by all workers, so
// two calls are ordered exactly when one returned before the other was
// invoked, and overlapping calls are never flagged. The round's
// starting state acts as a virtual write that returned before
// everything (return 0). In-flight writes have no return point, so
// nothing follows them and they stay candidates. A flagged read
// returned a value provably stale (the seqlock recheck failed to retry
// a torn section) or provably fabricated. Reads are validated per-round
// only — the round's history plus its recovered baseline is a complete
// candidate set, because earlier rounds' superseded values are absent
// from the recovered image.
func checkReadLinearizability(baseline map[uint64]uint64, h *history, round int) []Violation {
	legal := func(r *Op, key, got uint64) bool {
		writes := h.writes[key]
		// overwrittenBeforeRead: a completed write was invoked after ret
		// and returned before r began.
		overwrittenBeforeRead := func(ret uint64) bool {
			for _, w2 := range writes {
				if w2.Done && w2.Invoke > ret && r.Invoke > w2.Return {
					return true
				}
			}
			return false
		}
		// Virtual baseline write (value 0 = key absent at round start).
		if baseline[key] == got && !overwrittenBeforeRead(0) {
			return true
		}
		for _, w := range writes {
			if w.writtenValue() != got {
				continue
			}
			if w.Invoke > r.Return {
				continue // invoked after the read ended
			}
			if w.Done && overwrittenBeforeRead(w.Return) {
				continue
			}
			return true
		}
		return false
	}

	var out []Violation
	for _, r := range h.lookups {
		got := uint64(0) // absent reads observe the tombstone register
		if r.Found {
			got = r.Value
		}
		if !legal(r, r.Key, got) {
			out = append(out, Violation{
				Round: round, Key: r.Key, Got: got,
				Reason: fmt.Sprintf("worker %d lookup observed a value outside its read window (stale or torn optimistic read)", r.Worker),
			})
		}
	}
	for _, r := range h.scans {
		for _, kv := range r.Observed {
			if !legal(r, kv[0], kv[1]) {
				out = append(out, Violation{
					Round: round, Key: kv[0], Got: kv[1],
					Reason: fmt.Sprintf("worker %d scan observed a value outside its read window (stale or torn optimistic read)", r.Worker),
				})
			}
		}
	}
	return out
}

// checkScanAgreement cross-checks the post-recovery scan snapshot
// against per-key lookups: both read paths must agree on the live key
// set and values. Divergence means the leaf metadata (bitmap vs
// fingerprints vs slots) recovered inconsistently.
func checkScanAgreement(byLookup, byScan map[uint64]uint64, round int) []Violation {
	var out []Violation
	for k, v := range byLookup {
		if sv, ok := byScan[k]; !ok {
			out = append(out, Violation{Round: round, Key: k, Got: v,
				Reason: "key visible via lookup but missing from scan"})
		} else if sv != v {
			out = append(out, Violation{Round: round, Key: k, Got: sv,
				Reason: fmt.Sprintf("scan value %#x disagrees with lookup value %#x", sv, v)})
		}
	}
	for k, sv := range byScan {
		if _, ok := byLookup[k]; !ok {
			out = append(out, Violation{Round: round, Key: k, Got: sv,
				Reason: "key visible via scan but absent via lookup"})
		}
	}
	return out
}
