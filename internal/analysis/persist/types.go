package persist

// types.go is the analyzer's syntactic type resolution: struct field
// declarations, the declared types of a function's identifiers, and
// the struct type an expression denotes. The call graph resolves
// method calls by receiver type through it (callgraph.go), and PL010
// finds seqlock version fields through it.

import (
	"go/ast"
	"go/token"
)

// collectStructInfo records, for every struct type declaration, its
// field → declared-type map (for owner resolution) and its seqlock
// version fields: typed sync/atomic fields named version or seq, or
// annotated //persistlint:seqlock.
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
		fields := a.structFields[ts.Name.Name]
		if fields == nil {
			fields = map[string]string{}
			a.structFields[ts.Name.Name] = fields
		}
		for _, fld := range st.Fields.List {
			base := typeBaseName(fld.Type)
			typedAtomic := fi.isTypedAtomic(fld.Type)
			for _, name := range fld.Names {
				fields[name.Name] = base
				line := a.fset.Position(name.Pos()).Line
				if fi.fieldSeqlock(line) || typedAtomic && (name.Name == "version" || name.Name == "seq") {
					a.seqFields[name.Name] = true
				}
			}
		}
		return true
	})
}

// isTypedAtomic reports whether the type expression denotes one of the
// sync/atomic value types (atomic.Uint64, atomic.Bool, atomic.Pointer[T],
// ...).
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

// collectVarTypes seeds the identifier → struct-type map from the
// receiver, parameters, and simple local assignments (x := expr where
// expr's type resolves, x := &T{...}, x := T{...}). Best-effort and
// syntactic: an unresolvable identifier simply stays untyped.
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
