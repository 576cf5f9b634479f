package kcenter_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"io/fs"
	"maps"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
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
// non-test file outside their own file uses, and the knob fields that no
// non-test file sets, each with its reason.
var testOnlyAllowed = map[string]string{
	// Reference oracles: tests check the production algorithms against them.
	"internal/gmm.BruteForceOptimalRadius":             "oracle: exact k-center optimum by exhaustive search",
	"internal/gmm.BruteForceOptimalRadiusWithOutliers": "oracle: exact k-center-with-outliers optimum by exhaustive search",
	"internal/outliers.CharikarEtAlExhaustive":         "oracle: the Charikar et al. radius search over every candidate radius",
	"internal/metric.Diameter":                         "oracle: scalar diameter that bounds the optimum in property tests",
	"internal/metric.Minkowski":                        "oracle: a metric with no built-in Space, to drive the adapter path",
	"internal/metric.NewCounter":                       "oracle: counts scalar evaluations to check evaluation accounting",
	"internal/metric.Counter.Distance":                 "oracle: the counted scalar distance",
	"internal/metric.Counter.Calls":                    "oracle: reads the scalar evaluation count",
	"internal/metric.Counter.Reset":                    "oracle: zeroes the scalar evaluation count",
	"internal/metric.DistanceToSet":                    "oracle: scalar nearest-center scan the batched kernels are held to",
	"internal/metric.Assign":                           "oracle: scalar assignment the engine's Assign is held to",
	// Invariant checkers: tests assert the paper's invariants after every step.
	"internal/streaming.Doubling.CheckInvariants": "checks the doubling coreset's structural invariants (a), (b) and (d)",
	"internal/window.Window.CheckInvariants":      "checks the bucket ring's structure and every bucket's coverage",
	// Observation points of tests that must pass unedited or compare layouts.
	"internal/clusterer.Clusterer.Result": "TestFingerprints and the root metamorphic relations pin SearchRadius and UncoveredWeight through it",
	"internal/window.Window.Buckets":      "the root metamorphic relations compare bucket layouts through it",
	// Size knobs the experiment tests shrink; the CLI runs the paper's k.
	"internal/experiments.Figure2Config.K": "the experiment tests' size knob (zero selects each dataset's DefaultK)",
	"internal/experiments.Figure3Config.K": "the experiment tests' size knob (zero selects each dataset's DefaultK)",
	// Certificate ingredients: ROADMAP item 5 turns them into a radius certificate.
	"internal/coreset.MaxProxyRadius":         "waits for ROADMAP item 5",
	"internal/coreset.TheoreticalSizeBound":   "waits for ROADMAP item 5",
	"internal/window.Window.CoverageBound":    "waits for ROADMAP item 5",
	"internal/metric.CoresetSizeForDimension": "waits for ROADMAP item 5",
	"internal/metric.WeightedSet.TotalWeight": "waits for ROADMAP item 14's Σw = observed audit",
	// The gate protocol lives in a non-test file so that every package's
	// gates can import it.
	"internal/benchgate.MedianRatio": "only the BenchmarkGate* functions call it",
	// bench/ is changed only by a benchmark change, so its test-only uses stay.
	"internal/metric.Point.Scale": "bench/check_test.go uses it",
	"internal/metric.Flat.Coords": "bench/gen/gen_test.go uses it",
	"internal/metric.Flat.Dim":    "bench/gen/gen_test.go uses it",
}

// TestNoTestOnlyInternalExports keeps production code free of internal
// surface that only tests reach. It type-checks every non-test package of the
// repository, bench/ included, and resolves each use to the object it names,
// once with the host's files and once with the purego tag's, which are the
// files every other architecture builds. Every exported top-level func and method of a non-test file under internal/
// must be used by another non-test file; a method also counts as used when an
// interface method it implements is used, and String, Error and Unwrap are
// exempt. Every field of a struct named *Config, *Options, Spec or Params
// under internal/ must be set by a non-test file, through a composite-literal
// key, an assignment or &x.F. Anything else needs an entry in
// testOnlyAllowed, and an entry that is now used, or no longer declared, is an
// error too.
func TestNoTestOnlyInternalExports(t *testing.T) {
	unused := testOnlySurface(t, ".", "coresetclustering")
	for _, key := range slices.Sorted(maps.Keys(unused)) {
		if _, ok := testOnlyAllowed[key]; !ok {
			t.Errorf("%s: only tests reach %s; delete it, unexport it, move it to a _test.go file, or allow-list it with a reason", unused[key], key)
		}
	}
	for key := range testOnlyAllowed {
		if _, ok := unused[key]; !ok {
			t.Errorf("testOnlyAllowed[%q] is stale: it is not declared under internal/, or a non-test file now reaches it", key)
		}
	}
}

// TestTestOnlySurfaceFixture runs the scan on testdata/gatefixture, whose
// comments say which of its names only tests reach, so that the gate cannot
// slide back to matching identifiers by name.
func TestTestOnlySurfaceFixture(t *testing.T) {
	unused := testOnlySurface(t, "testdata/gatefixture", "gatefixture")
	want := []string{"internal/fix.Box.Reset", "internal/fix.Grow", "internal/fix.Spec.Limit"}
	if got := slices.Sorted(maps.Keys(unused)); !slices.Equal(got, want) {
		t.Errorf("reported %q, want %q", got, want)
	}
}

// testOnlySurface type-checks every non-test package under root, whose import
// path is module (dot directories and testdata aside; the standard library
// comes from export data), and returns the internal names that only tests
// reach, each with its file. It scans the tree twice, once with the host's
// file set and once with the purego tag, which selects the files every other
// architecture builds (metric's simd_other.go for simd_amd64.go): a name is
// reported when no build that declares it uses it.
func testOnlySurface(t *testing.T, root, module string) map[string]string {
	t.Helper()
	purego := build.Default
	purego.BuildTags = append(slices.Clone(purego.BuildTags), "purego")
	var imps []*treeImporter
	fset := token.NewFileSet()
	for _, ctxt := range []*build.Context{&build.Default, &purego} {
		imp := &treeImporter{fset: fset, pkgs: map[string]*typedPkg{}}
		loadTree(t, ctxt, imp, root, module)
		imps = append(imps, imp)
	}
	// One go list call finds the export data of every package outside the
	// tree; asking the default importer instead costs a go list per package.
	var std []string
	for _, imp := range imps {
		for _, p := range imp.pkgs {
			for _, f := range p.files {
				for _, spec := range f.Imports {
					path, _ := strconv.Unquote(spec.Path.Value)
					if imp.pkgs[path] == nil && path != "unsafe" && !slices.Contains(std, path) {
						std = append(std, path)
					}
				}
			}
		}
	}
	exports := map[string]string{}
	if len(std) > 0 {
		out, err := exec.Command("go", append([]string{"list", "-export", "-f", "{{.ImportPath}} {{.Export}}"}, std...)...).Output()
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			path, file, _ := strings.Cut(line, " ")
			exports[path] = file
		}
	}
	stdImp := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) { return os.Open(exports[path]) })
	declared := map[string]string{} // internal name -> its file
	used := map[string]bool{}       // internal names a non-test file reaches in some build
	for _, imp := range imps {
		imp.std = stdImp
		scanTree(t, imp, declared, used)
	}
	unused := map[string]string{}
	for key, file := range declared {
		if !used[key] {
			unused[key] = file
		}
	}
	return unused
}

// loadTree parses the non-test files of every package under root that ctxt
// selects into imp.
func loadTree(t *testing.T, ctxt *build.Context, imp *treeImporter, root, module string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case !d.IsDir():
			return nil
		case path != root && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata"):
			return filepath.SkipDir
		}
		bp, err := ctxt.ImportDir(path, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		} else if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		p := &typedPkg{dir: filepath.ToSlash(rel)}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(imp.fset, filepath.Join(path, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		importPath := module
		if p.dir != "." {
			importPath += "/" + p.dir
		}
		imp.pkgs[importPath] = p
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// scanTree type-checks the packages of imp and records in declared every
// exported internal func, method and knob field with its file, and in used
// those that a non-test file other than their own reaches (a field: sets).
func scanTree(t *testing.T, imp *treeImporter, declared map[string]string, used map[string]bool) {
	t.Helper()
	for path := range imp.pkgs {
		if _, err := imp.Import(path); err != nil {
			t.Fatal(err)
		}
	}

	uses := map[types.Object]map[string]bool{} // func or method -> non-test files that use it
	var ifaceUses []*types.Func                // interface methods some non-test file uses
	set := map[types.Object]bool{}             // fields some non-test file sets
	for _, p := range imp.pkgs {
		for id, obj := range p.info.Uses {
			fn, ok := obj.(*types.Func)
			if !ok {
				continue
			}
			fn = fn.Origin()
			if recv := fn.Signature().Recv(); recv != nil && types.IsInterface(recv.Type()) {
				ifaceUses = append(ifaceUses, fn)
			}
			if uses[fn] == nil {
				uses[fn] = map[string]bool{}
			}
			uses[fn][imp.fset.Position(id.Pos()).Filename] = true
		}
		setField := func(x ast.Expr) {
			if sel, ok := ast.Unparen(x).(*ast.SelectorExpr); ok {
				if s := p.info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
					set[s.Obj().(*types.Var).Origin()] = true
				}
			}
		}
		for _, f := range p.files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.CompositeLit:
					typ := p.info.TypeOf(n)
					if ptr, ok := typ.(*types.Pointer); ok {
						typ = ptr.Elem()
					}
					st, ok := typ.Underlying().(*types.Struct)
					if !ok {
						break
					}
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							set[p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var).Origin()] = true
						} else {
							set[st.Field(i).Origin()] = true
						}
					}
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						setField(lhs)
					}
				case *ast.IncDecStmt:
					setField(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						setField(n.X)
					}
				}
				return true
			})
		}
	}
	usedElsewhere := func(fn *types.Func, file string) bool {
		for f := range uses[fn] {
			if f != file {
				return true
			}
		}
		recv := fn.Signature().Recv()
		if recv == nil {
			return false
		}
		for _, m := range ifaceUses {
			iface := m.Signature().Recv().Type().Underlying().(*types.Interface)
			if m.Name() == fn.Name() && (types.Implements(recv.Type(), iface) || types.Implements(types.NewPointer(recv.Type()), iface)) {
				return true
			}
		}
		return false
	}

	for _, p := range imp.pkgs {
		if !strings.HasPrefix(p.dir, "internal/") {
			continue
		}
		for _, f := range p.files {
			file := imp.fset.Position(f.Pos()).Filename
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || d.Name.Name == "String" || d.Name.Name == "Error" || d.Name.Name == "Unwrap" {
						continue
					}
					fn := p.info.Defs[d.Name].(*types.Func)
					key := p.dir + "."
					if recv := fn.Signature().Recv(); recv != nil {
						typ := recv.Type()
						if ptr, ok := typ.(*types.Pointer); ok {
							typ = ptr.Elem()
						}
						key += typ.(*types.Named).Obj().Name() + "."
					}
					key += fn.Name()
					declared[key] = file
					if usedElsewhere(fn, file) {
						used[key] = true
					}
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						ts, ok := spec.(*ast.TypeSpec)
						if !ok {
							continue
						}
						name := ts.Name.Name
						st, ok := p.info.Defs[ts.Name].Type().Underlying().(*types.Struct)
						if !ok || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options") || name == "Spec" || name == "Params") {
							continue
						}
						for i := range st.NumFields() {
							key := p.dir + "." + name + "." + st.Field(i).Name()
							declared[key] = file
							if set[st.Field(i)] {
								used[key] = true
							}
						}
					}
				}
			}
		}
	}
}

// typedPkg is one non-test package of a scanned tree.
type typedPkg struct {
	dir   string // slash-separated, relative to the tree's root
	files []*ast.File
	info  *types.Info
	pkg   *types.Package // nil until the package is checked
}

// treeImporter type-checks the packages of a tree from source on first
// import and takes every other package from its export data.
type treeImporter struct {
	fset *token.FileSet
	pkgs map[string]*typedPkg // by import path
	std  types.Importer
}

func (im *treeImporter) Import(path string) (*types.Package, error) {
	p, ok := im.pkgs[path]
	if !ok {
		return im.std.Import(path)
	}
	if p.pkg != nil {
		return p.pkg, nil
	}
	p.info = &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Types:      map[ast.Expr]types.TypeAndValue{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: im}
	var err error
	p.pkg, err = conf.Check(path, im.fset, p.files, p.info)
	return p.pkg, err
}
