package persist

// summary.go computes whole-program interprocedural summaries over the
// call graph (callgraph.go).
//
// Discharge summaries: a function that takes a *pmem.Thread parameter
// and, on every path to a normal return, Flushes (coversStore) and
// Fences (coversFlush) on that parameter discharges the caller's open
// obligations at the call site — wal's Log.Append and the tree's
// writeWholeLeaf are the motivating cases. The summary is computed by
// seeding the obligation dataflow with a synthetic store and flush
// obligation per thread parameter (negative origins, never reported)
// and testing whether the seeds are dead at exit.
//
// Summaries are keyed per declaration and computed in the call graph's
// callee-first SCC order, so a helper two (or ten) hops above the
// fence is credited: when persistRegion's summary is computed, the
// summaries of everything it calls are already final. Within a
// strongly connected component — self- or mutual recursion — members
// start optimistically (covers everything) and iterate downward to a
// fixpoint: coverage bits only ever flip true→false, so the iteration
// terminates, and a mutually-recursive pair whose base cases persist
// is credited while a pair that can return without fencing is not.
//
// At a call site the candidate summaries (resolved by the call graph,
// exact where the receiver type resolves, the bare-name set otherwise)
// merge with AND semantics: every candidate must cover for the site to
// be credited — the same conservative rule the old one-level engine
// applied, minus its blindness to multi-hop discharge.

import "go/token"

// summary is the discharge behavior of one declared function.
type summary struct {
	coversStore bool // Flush or Persist on every thread param, all paths
	coversFlush bool // Fence or Persist on every thread param, all paths
}

// computeSummaries fills an.summaries from the call graph. Must run
// after buildCallGraph and before the rule pass.
func (a *Analyzer) computeSummaries() {
	a.summaries = map[string]summary{}

	// Callee-first over the SCC condensation; optimistic within an SCC,
	// iterated to a (greatest) fixpoint. a.summaries is the live table
	// the dataflow reads, so a member's recomputation sees its siblings'
	// current values.
	for _, comp := range a.cg.sccs {
		for _, n := range comp {
			if hasThreadParams(n) {
				a.summaries[n.key] = summary{coversStore: true, coversFlush: true}
			}
		}
		for changed := true; changed; {
			changed = false
			for _, n := range comp {
				if _, ok := a.summaries[n.key]; !ok {
					continue
				}
				s, _ := a.dischargeSummary(n)
				if s != a.summaries[n.key] {
					a.summaries[n.key] = s
					changed = true
				}
			}
		}
	}
	a.stats.DischargeSummaries = len(a.summaries)
}

// hasThreadParams reports whether the declaration takes any
// *pmem.Thread parameter — the precondition for a discharge summary.
func hasThreadParams(n *funcNode) bool {
	for _, fld := range n.fd.Type.Params.List {
		if n.fi.isThreadType(fld.Type) && len(fld.Names) > 0 {
			return true
		}
	}
	return false
}

// dischargeSummary computes the summary of one declaration against the
// analyzer's current summary table. ok is false when the function has
// no thread parameters (nothing to summarize).
func (a *Analyzer) dischargeSummary(n *funcNode) (summary, bool) {
	var params []string
	for _, fld := range n.fd.Type.Params.List {
		if n.fi.isThreadType(fld.Type) {
			for _, p := range fld.Names {
				params = append(params, p.Name)
			}
		}
	}
	if len(params) == 0 {
		return summary{}, false
	}
	fa := n.fa
	g, _ := fa.buildCFG(n.fd.Body)

	seeds := oblSet{}
	for i, p := range params {
		seeds[obl{origin: token.Pos(-(2*i + 1)), key: p, kind: obStore, method: "Store"}] = struct{}{}
		seeds[obl{origin: token.Pos(-(2*i + 2)), key: p, kind: obFlush, method: "Flush"}] = struct{}{}
	}
	in := fa.oblFixpoint(g, seeds)
	residue := fa.exitResidue(g, in)

	s := summary{coversStore: true, coversFlush: true}
	for o := range residue {
		if o.origin > 0 {
			continue // the function's own obligations, reported elsewhere
		}
		switch o.kind {
		case obStore:
			s.coversStore = false
		case obFlush:
			s.coversFlush = false
		}
	}
	return s, true
}

// callSummary AND-merges the candidates' summaries at a call site. ok
// is false when no candidate has a summary — an unknown callee earns
// no credit, exactly as before.
func (a *Analyzer) callSummary(calleeKeys []string) (summary, bool) {
	merged := summary{coversStore: true, coversFlush: true}
	found := false
	for _, k := range calleeKeys {
		s, ok := a.summaries[k]
		if !ok {
			continue
		}
		found = true
		merged.coversStore = merged.coversStore && s.coversStore
		merged.coversFlush = merged.coversFlush && s.coversFlush
	}
	return merged, found
}
