package crashtest

import (
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"slices"
	"strings"
	"testing"
)

// TestEveryPropertyRunsOnEveryRow fails when an exported property of the
// suite (a function of rows ...Row) is not called on all three rows by
// the files that run the suite, so that a property added for one
// directory cannot quietly skip the others.
func TestEveryPropertyRunsOnEveryRow(t *testing.T) {
	callers := map[string][]string{
		"../crashsuite_test.go":            {"fixed", "varKV"},
		"../../cclhash/crashsuite_test.go": {"hashRow"},
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, ".", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var props []string
	for _, f := range pkgs["crashtest"].Files {
		for _, d := range f.Decls {
			if fn, ok := d.(*ast.FuncDecl); ok && fn.Recv == nil && fn.Name.IsExported() &&
				strings.HasSuffix(types.ExprString(fn.Type), "...Row)") {
				props = append(props, fn.Name.Name)
			}
		}
	}
	for file, rows := range callers {
		f, err := parser.ParseFile(fset, file, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		passed := map[string][]string{} // property -> the rows its calls pass
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if p, ok := strings.CutPrefix(types.ExprString(call.Fun), "crashtest."); ok {
					for _, a := range call.Args {
						passed[p] = append(passed[p], types.ExprString(a))
					}
				}
			}
			return true
		})
		for _, p := range props {
			for _, row := range rows {
				if !slices.Contains(passed[p], row) {
					t.Errorf("%s: crashtest.%s is never called on row %s", file, p, row)
				}
			}
		}
	}
	if len(props) < 8 {
		t.Errorf("found %d properties, want the suite's 8: %v", len(props), props)
	}
}
