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
	forEachNonTestFile(t, fset, "internal", func(path string, f *ast.File) {
		if filepath.ToSlash(filepath.Dir(path)) == "internal/metric" {
			return
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
			return
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
	})
}

// forEachNonTestFile parses every non-test .go file under root, dot
// directories and testdata aside, and hands it to fn.
func forEachNonTestFile(t *testing.T, fset *token.FileSet, root string, fn func(path string, f *ast.File)) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		case d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go"):
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		fn(path, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// testOnlyAllowed names the exported internal functions and methods that no
// non-test file outside their own file uses, each with its reason.
var testOnlyAllowed = map[string]string{
	// Reference oracles: tests check the production algorithms against them.
	"internal/gmm.BruteForceOptimalRadius":             "oracle: exact k-center optimum by exhaustive search",
	"internal/gmm.BruteForceOptimalRadiusWithOutliers": "oracle: exact k-center-with-outliers optimum by exhaustive search",
	"internal/outliers.CharikarEtAlExhaustive":         "oracle: the Charikar et al. radius search over every candidate radius",
	"internal/metric.Diameter":                         "oracle: scalar diameter that bounds the optimum in property tests",
	"internal/metric.Minkowski":                        "oracle: a metric with no built-in Space, to drive the adapter path",
	"internal/metric.NewCounter":                       "oracle: counts scalar evaluations to check evaluation accounting",
	// Certificate ingredients: ROADMAP item 5 turns them into a radius certificate.
	"internal/coreset.MaxProxyRadius":         "waits for ROADMAP item 5",
	"internal/coreset.TheoreticalSizeBound":   "waits for ROADMAP item 5",
	"internal/window.Window.CoverageBound":    "waits for ROADMAP item 5",
	"internal/metric.CoresetSizeForDimension": "waits for ROADMAP item 5",
	"internal/metric.WeightedSet.TotalWeight": "waits for ROADMAP item 14's Σw = observed audit",
	// bench/ is changed only by a benchmark change, so its test-only uses stay.
	"internal/metric.Point.Scale": "bench/check_test.go uses it",
	"internal/metric.Flat.Coords": "bench/gen/gen_test.go uses it",
}

// TestNoTestOnlyInternalExports keeps production code free of exported
// internal functions that only tests reach: every exported top-level func and
// method of a non-test file under internal/ must be referenced by name from
// another non-test .go file of the repository, or be in testOnlyAllowed. An
// allow-list entry that is now used, or no longer declared, is an error too.
func TestNoTestOnlyInternalExports(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ key, file string }
	var decls []decl
	uses := map[string]map[string]bool{} // name -> non-test files that reference it
	forEachNonTestFile(t, fset, ".", func(path string, f *ast.File) {
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || !fn.Name.IsExported() || !strings.HasPrefix(filepath.ToSlash(path), "internal/") {
				continue
			}
			key := filepath.ToSlash(filepath.Dir(path)) + "."
			if fn.Recv != nil {
				typ := fn.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				switch idx := typ.(type) {
				case *ast.IndexExpr:
					typ = idx.X
				case *ast.IndexListExpr:
					typ = idx.X
				}
				key += typ.(*ast.Ident).Name + "."
			}
			decls = append(decls, decl{key + fn.Name.Name, path})
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if uses[id.Name] == nil {
					uses[id.Name] = map[string]bool{}
				}
				uses[id.Name][path] = true
			}
			return true
		})
	})
	seen := map[string]bool{}
	for _, d := range decls {
		seen[d.key] = true
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		used := false
		for file := range uses[name] {
			used = used || file != d.file
		}
		_, allowed := testOnlyAllowed[d.key]
		switch {
		case !used && !allowed:
			t.Errorf("%s: only tests use %s; delete it, unexport it, move it to a _test.go file, or allow-list it with a reason", d.file, d.key)
		case used && allowed:
			t.Errorf("testOnlyAllowed[%q] is stale: %s now has a production caller", d.key, d.key)
		}
	}
	for key := range testOnlyAllowed {
		if !seen[key] {
			t.Errorf("testOnlyAllowed[%q] is stale: no non-test file under internal/ declares it", key)
		}
	}
}
