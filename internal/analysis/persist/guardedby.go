package persist

// guardedby.go implements PL009, guarded-by inference: a struct field
// whose accesses are dominantly performed while one declared lock
// class is held gets that lock inferred as its guard, and the minority
// accesses that hold nothing are reported. The inference is the
// RECIPE-style discipline check in reverse — instead of asking the
// programmer to annotate every field, the analyzer reads the de facto
// protocol out of the held-set dataflow and flags the outliers, which
// are exactly the accesses a lock-free refactor would silently race.
//
// Scope: only fields of structs that themselves declare a classed lock
// (stw, workersMu, gcMu, or a "mu" owned by a known type) participate;
// a guard candidate must be a lock the struct actually has. Accesses
// are attributed to their owning struct by a best-effort syntactic
// type resolution (receiver and parameter types, field declaration
// chains, simple local assignments); accesses whose owner cannot be
// resolved are not judged. Constructor/init paths (New*/Open*/init*/
// make*) are exempt — fields are routinely filled before the value is
// published. An explicit //persistlint:guardedby <class> on the field
// declaration replaces inference: every non-constructor access must
// then hold the class, regardless of dominance.

import (
	"fmt"
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// Inference thresholds: a guard is inferred for a field only when the
// protocol is unambiguous — at least guardMinTotal judged accesses, at
// least guardMinHeld of them under the winning class, and the winner
// covering at least guardMinNum/guardMinDen of the total. Below that
// the analyzer assumes no protocol rather than guessing one.
const (
	guardMinTotal = 4
	guardMinHeld  = 3
	guardMinNum   = 3 // 3/4 = 75%
	guardMinDen   = 4
)

// collectStructInfo records, for every struct type declaration: its
// field → declared-type map (for owner resolution), the classed locks
// it declares (guard candidates for its siblings), typed-atomic and
// seqlock-counter fields, and explicit guardedby declarations.
func (a *Analyzer) collectStructInfo(fi *fileInfo) {
	ast.Inspect(fi.f, func(n ast.Node) bool {
		ts, ok := n.(*ast.TypeSpec)
		if !ok {
			return true
		}
		st, ok := ts.Type.(*ast.StructType)
		if !ok {
			return true
		}
		typeName := ts.Name.Name
		fields := a.structFields[typeName]
		if fields == nil {
			fields = map[string]string{}
			a.structFields[typeName] = fields
		}
		var locks []string
		for _, fld := range st.Fields.List {
			base := typeBaseName(fld.Type)
			typedAtomic := fi.isTypedAtomic(fld.Type)
			for _, name := range fld.Names {
				fields[name.Name] = base
				line := a.fset.Position(name.Pos()).Line
				if cls, ok := uniqueLockFields[name.Name]; ok {
					locks = append(locks, cls)
				} else if name.Name == "mu" {
					if cls, ok := muOwnerClass[typeName]; ok {
						locks = append(locks, cls)
					}
				}
				if typedAtomic {
					a.typedAtomicFields[name.Name] = true
					if name.Name == "version" || name.Name == "seq" || fi.fieldSeqlock(line) {
						a.seqFields[name.Name] = true
					}
				} else if fi.fieldSeqlock(line) {
					a.seqFields[name.Name] = true
				}
				if g := fi.fieldGuard(line); g != nil {
					key := typeName + "." + name.Name
					a.guardDecls[key] = g.class
					a.guardDeclPos[key] = name.Pos()
				}
			}
		}
		if len(locks) > 0 {
			sort.Strings(locks)
			a.structLocks[typeName] = dedupStrings(append(a.structLocks[typeName], locks...))
		}
		return true
	})
}

func dedupStrings(in []string) []string {
	sort.Strings(in)
	out := in[:0]
	for i, s := range in {
		if i == 0 || s != in[i-1] {
			out = append(out, s)
		}
	}
	return out
}

// isTypedAtomic reports whether the type expression denotes one of the
// sync/atomic value types (atomic.Uint64, atomic.Bool, atomic.Pointer[T],
// ...). Plain access to those is already a type error, so PL008/PL009
// leave them to the compiler.
func (fi *fileInfo) isTypedAtomic(e ast.Expr) bool {
	if idx, ok := e.(*ast.IndexExpr); ok { // atomic.Pointer[T]
		e = idx.X
	}
	sel, ok := e.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	id, ok := sel.X.(*ast.Ident)
	return ok && fi.atomicName != "" && id.Name == fi.atomicName
}

// atomicValueMethods are the methods of the typed sync/atomic wrappers;
// a selector ending in a typed-atomic field followed by one of these is
// an atomic access.
var atomicValueMethods = map[string]bool{
	"Load": true, "Store": true, "Add": true, "Swap": true,
	"CompareAndSwap": true, "Or": true, "And": true,
}

// collectVarTypes seeds the identifier → struct-type map from the
// receiver, parameters, and simple local assignments (x := expr where
// expr's type resolves, x := &T{...}, x := T{...}). Best-effort and
// syntactic: an unresolvable identifier simply stays untyped and its
// accesses are not judged.
func (fa *funcAnalysis) collectVarTypes() {
	fa.varTypes = map[string]string{}
	seed := func(fields []*ast.Field) {
		for _, fld := range fields {
			t := typeBaseName(fld.Type)
			if t == "" {
				continue
			}
			for _, n := range fld.Names {
				fa.varTypes[n.Name] = t
			}
		}
	}
	if fa.fn.Recv != nil {
		seed(fa.fn.Recv.List)
	}
	seed(fa.fn.Type.Params.List)
	ast.Inspect(fa.fn.Body, func(n ast.Node) bool {
		as, ok := n.(*ast.AssignStmt)
		if !ok || len(as.Lhs) != len(as.Rhs) {
			return true
		}
		for i, rhs := range as.Rhs {
			id, isIdent := as.Lhs[i].(*ast.Ident)
			if !isIdent || id.Name == "_" {
				continue
			}
			if t := fa.typeOf(rhs); t != "" {
				fa.varTypes[id.Name] = t
			}
		}
		return true
	})
}

// typeOf resolves the struct type base name of an expression, or ""
// when it cannot. Selector chains resolve through the global struct
// field declarations; a bare field name falls back to the unique
// declared type among all structs (ambiguity resolves to "").
func (fa *funcAnalysis) typeOf(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.ParenExpr:
		return fa.typeOf(x.X)
	case *ast.StarExpr:
		return fa.typeOf(x.X)
	case *ast.UnaryExpr:
		if x.Op == token.AND {
			return fa.typeOf(x.X)
		}
	case *ast.Ident:
		return fa.varTypes[x.Name]
	case *ast.CompositeLit:
		return typeBaseName(x.Type)
	case *ast.SelectorExpr:
		if ot := fa.typeOf(x.X); ot != "" {
			return fa.an.structFields[ot][x.Sel.Name]
		}
		return fa.an.uniqueFieldType(x.Sel.Name)
	}
	return ""
}

// uniqueFieldType returns the declared type base name of a field when
// exactly one struct in the analyzed set declares a field of that name
// with a resolvable type ("" on absence or conflict).
func (a *Analyzer) uniqueFieldType(field string) string {
	found := ""
	for _, fields := range a.structFields {
		t, ok := fields[field]
		if !ok || t == "" {
			continue
		}
		if found != "" && found != t {
			return ""
		}
		found = t
	}
	return found
}

// accessOwnerKey is the "Type.field" key for judged accesses.
func accessKey(owner, field string) string { return owner + "." + field }

// inferGuards computes the dominant lock class per owner-resolved
// field. Explicit guardDecls win; otherwise a class is inferred only
// when the thresholds above hold. Typed-atomic and functional-atomic
// fields are never judged here (the type system and PL008 own them).
func (a *Analyzer) inferGuards() {
	a.inferredGuards = map[string]string{}
	type tally struct {
		total   int
		byClass map[string]int
	}
	tallies := map[string]*tally{}
	for _, acc := range a.accesses {
		if acc.owner == "" || acc.ctor || acc.atomic {
			continue
		}
		if a.typedAtomicFields[acc.field] || a.atomicFields[acc.field] {
			continue
		}
		candidates := a.structLocks[acc.owner]
		if len(candidates) == 0 {
			continue
		}
		key := accessKey(acc.owner, acc.field)
		tl := tallies[key]
		if tl == nil {
			tl = &tally{byClass: map[string]int{}}
			tallies[key] = tl
		}
		tl.total++
		for _, c := range candidates {
			if acc.held[c] {
				tl.byClass[c]++
			}
		}
	}
	keys := make([]string, 0, len(tallies))
	for k := range tallies {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, key := range keys {
		if _, declared := a.guardDecls[key]; declared {
			continue
		}
		tl := tallies[key]
		best, bestN := "", 0
		classes := make([]string, 0, len(tl.byClass))
		for c := range tl.byClass {
			classes = append(classes, c)
		}
		sort.Strings(classes)
		for _, c := range classes {
			if tl.byClass[c] > bestN {
				best, bestN = c, tl.byClass[c]
			}
		}
		if tl.total >= guardMinTotal && bestN >= guardMinHeld && bestN*guardMinDen >= tl.total*guardMinNum {
			a.inferredGuards[key] = best
		}
	}
}

// guardOf returns the effective guard class for an owner-resolved
// field: the explicit declaration if present, else the inference.
func (a *Analyzer) guardOf(owner, field string) string {
	if owner == "" {
		return ""
	}
	key := accessKey(owner, field)
	if g, ok := a.guardDecls[key]; ok {
		return g
	}
	return a.inferredGuards[key]
}

// checkGuardedBy reports PL009 for non-constructor accesses of a
// guarded field performed without the guard held, and PL000 for
// guardedby declarations naming an unknown lock class.
func (a *Analyzer) checkGuardedBy() []Finding {
	var out []Finding
	declKeys := make([]string, 0, len(a.guardDecls))
	for k := range a.guardDecls {
		declKeys = append(declKeys, k)
	}
	sort.Strings(declKeys)
	for _, key := range declKeys {
		if _, known := lockRank[a.guardDecls[key]]; !known {
			out = append(out, Finding{
				Pos:  a.fset.Position(a.guardDeclPos[key]),
				Code: CodeBadDirective,
				Func: "-",
				Msg: fmt.Sprintf("persistlint:guardedby names unknown lock class %q for %s (declared classes: %s)",
					a.guardDecls[key], key, lockOrderDecl),
			})
		}
	}
	for _, acc := range a.accesses {
		if acc.owner == "" || acc.ctor || acc.atomic {
			continue
		}
		if a.typedAtomicFields[acc.field] || a.atomicFields[acc.field] {
			continue // PL008's domain
		}
		guard := a.guardOf(acc.owner, acc.field)
		if guard == "" || acc.held[guard] {
			continue
		}
		if _, known := lockRank[guard]; !known {
			continue // bad declaration already reported as PL000
		}
		key := accessKey(acc.owner, acc.field)
		why := "declared"
		if _, declared := a.guardDecls[key]; !declared {
			why = "inferred from its other accesses"
		}
		msg := fmt.Sprintf("%s is guarded by %s (%s) but this access holds neither it nor any declared lock covering it; take %s or annotate the field",
			key, guard, why, guard)
		if f, ok := acc.fa.finding(CodeGuardedBy, acc.pos, msg); ok {
			out = append(out, f)
		}
	}
	return out
}

// message helper shared with PL008: a compact held-set rendering.
func heldString(held map[string]bool) string {
	if len(held) == 0 {
		return "no lock"
	}
	classes := make([]string, 0, len(held))
	for c := range held {
		classes = append(classes, c)
	}
	sort.Strings(classes)
	return strings.Join(classes, "+")
}
