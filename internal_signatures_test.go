package kcenter_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// distanceAllowed names the internal functions whose first parameter may
// still be a metric.Distance, each with its reason.
var distanceAllowed = map[string]string{
	"internal/coreset.Build": "bench/profile_lib.go calls coreset.Build(space.Dist(), …) and bench/ changes " +
		"only in a benchmark-only change; ROADMAP 8f moves that call, and this entry goes with it",
}

// TestNoDistanceInInternalSignatures keeps metric.Space the one internal
// currency: no function parameter or result and no struct field of a non-test
// file under internal/ — internal/metric, which defines both types, aside —
// has a type that mentions metric.Distance. A Distance enters the library only
// at the public adapter (WithDistance, SpaceFromDistance), which resolves it
// to a Space once.
func TestNoDistanceInInternalSignatures(t *testing.T) {
	fset := token.NewFileSet()
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path == filepath.Join("internal", "metric"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		metricName := ""
		for _, imp := range f.Imports {
			if p, _ := strconv.Unquote(imp.Path.Value); p == "coresetclustering/internal/metric" {
				metricName = "metric"
				if imp.Name != nil {
					metricName = imp.Name.Name
				}
			}
		}
		if metricName == "" {
			return nil
		}
		mentionsDistance := func(typ ast.Expr) bool {
			found := false
			ast.Inspect(typ, func(n ast.Node) bool {
				if sel, ok := n.(*ast.SelectorExpr); ok && sel.Sel.Name == "Distance" {
					if x, ok := sel.X.(*ast.Ident); ok && x.Name == metricName {
						found = true
					}
				}
				return !found
			})
			return found
		}
		var allowed ast.Expr // the allow-listed parameter's type, if this file declares one
		ast.Inspect(f, func(n ast.Node) bool {
			var lists []*ast.FieldList
			switch n := n.(type) {
			case *ast.FuncDecl:
				key := filepath.ToSlash(filepath.Dir(path)) + "." + n.Name.Name
				if _, ok := distanceAllowed[key]; ok && n.Recv == nil && len(n.Type.Params.List) > 0 {
					allowed = n.Type.Params.List[0].Type
				}
			case *ast.FuncType:
				lists = []*ast.FieldList{n.Params, n.Results}
			case *ast.StructType:
				lists = []*ast.FieldList{n.Fields}
			}
			for _, l := range lists {
				if l == nil {
					continue
				}
				for _, field := range l.List {
					if field.Type != allowed && mentionsDistance(field.Type) {
						t.Errorf("%s: metric.Distance in an internal signature; take a metric.Space", fset.Position(field.Pos()))
					}
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
