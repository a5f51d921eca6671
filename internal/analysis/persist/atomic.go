package persist

// atomic.go implements PL008, atomic-consistency: a struct field that
// is accessed through the functional sync/atomic API anywhere in the
// analyzed set (atomic.LoadUint64(&x.f), atomic.StoreUint64(&x.f[i], v),
// ...) must never be read or written plainly elsewhere — a plain load
// can observe a torn or stale value and the race detector only catches
// the schedules it happens to see. The one sanctioned exception is an
// access the held-set dataflow proves runs under the field's guard
// (declared via //persistlint:guardedby or inferred by PL009): a
// writer that publishes with atomics but mutates under the lock is a
// coherent protocol.
//
// Typed atomics (fields declared atomic.Uint64 and friends) are out of
// scope: the type system already forbids plain access to their value.
//
// This file also owns the shared access-collection pass: every access
// to a tracked field (PL008's atomic fields plus PL009's guard
// candidates) is recorded with the lock classes held at that program
// point, by replaying each function's CFG against its held-set
// fixpoint.

import (
	"fmt"
	"go/ast"
	"go/token"
	"strings"
)

// atomicFuncs are the functional sync/atomic operations whose first
// argument is &addressable; any of them marks the addressed field as
// atomic-disciplined.
var atomicFuncs = map[string]bool{
	"LoadInt32": true, "LoadInt64": true, "LoadUint32": true,
	"LoadUint64": true, "LoadUintptr": true, "LoadPointer": true,
	"StoreInt32": true, "StoreInt64": true, "StoreUint32": true,
	"StoreUint64": true, "StoreUintptr": true, "StorePointer": true,
	"AddInt32": true, "AddInt64": true, "AddUint32": true,
	"AddUint64": true, "AddUintptr": true,
	"SwapInt32": true, "SwapInt64": true, "SwapUint32": true,
	"SwapUint64": true, "SwapUintptr": true, "SwapPointer": true,
	"CompareAndSwapInt32": true, "CompareAndSwapInt64": true,
	"CompareAndSwapUint32": true, "CompareAndSwapUint64": true,
	"CompareAndSwapUintptr": true, "CompareAndSwapPointer": true,
}

// atomicArgField extracts the field selector addressed by a functional
// atomic call argument: &x.f or &x.f[i] → the x.f selector.
func atomicArgField(arg ast.Expr) *ast.SelectorExpr {
	un, ok := arg.(*ast.UnaryExpr)
	if !ok || un.Op != token.AND {
		return nil
	}
	inner := un.X
	if idx, ok := inner.(*ast.IndexExpr); ok {
		inner = idx.X
	}
	sel, _ := inner.(*ast.SelectorExpr)
	return sel
}

// collectAtomicUses records bare names of fields addressed by
// functional sync/atomic calls anywhere in the file.
func (a *Analyzer) collectAtomicUses(fi *fileInfo) {
	if fi.atomicName == "" {
		return
	}
	ast.Inspect(fi.f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) == 0 {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !atomicFuncs[sel.Sel.Name] {
			return true
		}
		if id, ok := sel.X.(*ast.Ident); !ok || id.Name != fi.atomicName {
			return true
		}
		if fieldSel := atomicArgField(call.Args[0]); fieldSel != nil {
			a.atomicFields[fieldSel.Sel.Name] = true
		}
		return true
	})
}

// buildTrackedFields computes the union of field names whose accesses
// the collection pass records: PL008's atomic fields, PL009's guard
// candidates (fields of lock-owning structs), and explicitly
// guard-declared fields. Lock fields themselves, single-owner handle
// types, and typed atomics are excluded.
func (a *Analyzer) buildTrackedFields() {
	add := func(f string) {
		if f == "" || f == "mu" {
			return
		}
		if _, isLock := uniqueLockFields[f]; isLock {
			return
		}
		if a.threadFields[f] || a.handleFields[f] || a.typedAtomicFields[f] {
			return
		}
		a.trackedFields[f] = true
	}
	for f := range a.atomicFields {
		add(f)
	}
	for typeName, locks := range a.structLocks {
		if len(locks) == 0 {
			continue
		}
		for f := range a.structFields[typeName] {
			add(f)
		}
	}
	for key := range a.guardDecls {
		if _, f, ok := strings.Cut(key, "."); ok {
			add(f)
		}
	}
}

// collectAccesses replays one function's CFG nodes against the held-set
// fixpoint, recording each tracked field access with the lock classes
// held when it executes. Runs once per analyzed body (runCFG).
func (fa *funcAnalysis) collectAccesses(g *cfg, in []heldSet) {
	seen := map[token.Pos]bool{}
	for _, n := range g.nodes {
		s := in[n.id].clone()
		for _, e := range n.events {
			if e.kind == evAccess && !seen[e.pos] {
				seen[e.pos] = true
				held := make(map[string]bool, len(s))
				for c := range s {
					held[c] = true
				}
				fa.an.accesses = append(fa.an.accesses, &fieldAccess{
					pos:    e.pos,
					fa:     fa,
					field:  e.accessField,
					owner:  e.accessOwner,
					atomic: e.accessAtomic,
					held:   held,
					ctor:   fa.ctor,
				})
			}
			fa.applyLock(s, e, nil)
		}
	}
}

// checkAtomicConsistency reports PL008 for plain accesses of fields
// that are atomic-disciplined elsewhere. Matching is owner-aware: an
// atomic access of Device.words indicts only plain accesses that
// resolve to Device.words, not the same-named DRAM snapshot field of
// another struct — and accesses whose owner the syntactic type
// resolution cannot determine are not judged at all (a false aliasing
// across structs would drown the rule in noise).
func (a *Analyzer) checkAtomicConsistency() []Finding {
	ownerAtomic := map[string]bool{} // "Type.field" accessed atomically
	for _, acc := range a.accesses {
		if acc.atomic && acc.owner != "" {
			ownerAtomic[accessKey(acc.owner, acc.field)] = true
		}
	}
	if len(ownerAtomic) == 0 {
		return nil
	}
	var out []Finding
	for _, acc := range a.accesses {
		if acc.atomic || acc.ctor || acc.owner == "" {
			continue
		}
		if !ownerAtomic[accessKey(acc.owner, acc.field)] {
			continue
		}
		if g := a.guardOf(acc.owner, acc.field); g != "" && acc.held[g] {
			continue // the field's guard is held: coherent lock+atomic protocol
		}
		msg := fmt.Sprintf("field %q is accessed with sync/atomic elsewhere; this plain access (under %s) races with those atomics — use the atomic API or hold the field's guard",
			acc.field, heldString(acc.held))
		if f, ok := acc.fa.finding(CodeAtomicMix, acc.pos, msg); ok {
			out = append(out, f)
		}
	}
	return out
}
