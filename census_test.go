package greencloud_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// censusAllow lists the exported internal/ identifiers that production code
// never references but that stay anyway, each with its reason.  Keys are
// "<package dir>.<Name>" for package-level objects and
// "<package dir>.<Type>.<Name>" for methods and fields.
var censusAllow = map[string]string{
	// Cross-package test hooks: the resilience suites in sched, milp and
	// core arm lp's fault points, tests across the module build models
	// with lp.MustVariable, and compare kernels bit for bit with
	// series.Equal.
	"internal/lp.ArmFault":             "fault-injection hook armed by other packages' tests",
	"internal/lp.DisarmFaults":         "fault-injection hook armed by other packages' tests",
	"internal/lp.Problem.MustVariable": "model-building helper for other packages' tests",
	"internal/series.Equal":            "bit-identity assertion used by other packages' tests",
	// Zero-option entry points: the natural call for a library user, even
	// though production always passes options.
	"internal/lp.Problem.Solve":     "zero-option entry point of SolveWithOptions",
	"internal/lp.Problem.SolveFrom": "zero-option entry point of SolveFromWithOptions",
	"internal/milp.Problem.Solve":   "zero-option entry point of SolveWithOptions",
}

// censusStdInterfaces are the standard-library interfaces production values
// are handed to; a method that helps satisfy one is reached through it.
var censusStdInterfaces = []struct{ pkg, name string }{
	{"fmt", "Stringer"},
	{"sort", "Interface"},
	{"container/heap", "Interface"},
	{"net/http", "Handler"},
	{"io", "Reader"},
	{"io", "Writer"},
}

// TestExportedSurfaceIsReached fails when an exported function, method,
// field, constant or variable under internal/ has no reference from
// non-test code anywhere in the module (perfbench/ included).  Such code
// either belongs in a _test.go file or should be deleted; see censusAllow
// for the deliberate exceptions.
func TestExportedSurfaceIsReached(t *testing.T) {
	c := newCensus(t)
	for _, dir := range c.dirs {
		if _, err := c.check(dir); err != nil {
			t.Fatal(err)
		}
	}
	for _, s := range censusStdInterfaces {
		p, err := c.std.Import(s.pkg)
		if err != nil {
			t.Fatal(err)
		}
		c.ifaces = append(c.ifaces, p.Scope().Lookup(s.name).Type().Underlying().(*types.Interface))
	}
	var dead []string
	for _, dir := range c.dirs {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, obj := range c.exported(c.pkgs[dir]) {
			key := censusKey(dir, obj)
			if c.used[obj] || c.satisfiesInterface(obj) {
				continue
			}
			if _, ok := censusAllow[key]; ok {
				delete(c.unusedAllow, key)
				continue
			}
			dead = append(dead, key+" ("+c.fset.Position(obj.Pos()).String()+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported but unreached by non-test code: %s", d)
	}
	for key := range c.unusedAllow {
		t.Errorf("censusAllow entry %s no longer names an unreached identifier; drop it", key)
	}
}

type census struct {
	fset        *token.FileSet
	std         types.Importer
	dirs        []string                  // module-relative package dirs, "" for the root
	files       map[string][]*ast.File    // dir → parsed non-test files
	pkgs        map[string]*types.Package // dir → checked package
	used        map[types.Object]bool
	ifaces      []*types.Interface // module interfaces, then censusStdInterfaces
	unusedAllow map[string]bool
}

func newCensus(t *testing.T) *census {
	c := &census{
		fset:        token.NewFileSet(),
		std:         importer.Default(),
		files:       map[string][]*ast.File{},
		pkgs:        map[string]*types.Package{},
		used:        map[types.Object]bool{},
		unusedAllow: map[string]bool{},
	}
	for k := range censusAllow {
		c.unusedAllow[k] = true
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		name := d.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		if dir == "." {
			dir = ""
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), name); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(c.fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if len(c.files[dir]) == 0 {
			c.dirs = append(c.dirs, dir)
		}
		c.files[dir] = append(c.files[dir], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(c.dirs)
	return c
}

// Import resolves module packages from source and everything else from the
// standard library's export data.
func (c *census) Import(path string) (*types.Package, error) {
	if path == "greencloud" {
		return c.check("")
	}
	if rest, ok := strings.CutPrefix(path, "greencloud/"); ok {
		return c.check(rest)
	}
	return c.std.Import(path)
}

// check type-checks one module package (memoized), recording every object
// its non-test code references.
func (c *census) check(dir string) (*types.Package, error) {
	if p, ok := c.pkgs[dir]; ok {
		return p, nil
	}
	path := "greencloud"
	if dir != "" {
		path += "/" + dir
	}
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Types:      map[ast.Expr]types.TypeAndValue{},
	}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(path, c.fset, c.files[dir], info)
	if err != nil {
		return nil, err
	}
	c.pkgs[dir] = pkg
	for _, obj := range info.Uses {
		c.use(obj)
	}
	// A promoted selector x.M records M; the embedded fields it passes
	// through are reached too.
	for _, sel := range info.Selections {
		typ := sel.Recv()
		for _, idx := range sel.Index()[:len(sel.Index())-1] {
			st, ok := derefStruct(typ)
			if !ok {
				break
			}
			f := st.Field(idx)
			c.use(f)
			typ = f.Type()
		}
	}
	// Positional composite literals set every field of their struct.
	for _, f := range c.files[dir] {
		ast.Inspect(f, func(n ast.Node) bool {
			lit, ok := n.(*ast.CompositeLit)
			if !ok || len(lit.Elts) == 0 {
				return true
			}
			if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
				return true
			}
			if st, ok := derefStruct(info.Types[lit].Type); ok {
				for i := 0; i < st.NumFields(); i++ {
					c.use(st.Field(i))
				}
			}
			return true
		})
	}
	for _, name := range pkg.Scope().Names() {
		if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				c.ifaces = append(c.ifaces, it)
			}
		}
	}
	return pkg, nil
}

func (c *census) use(obj types.Object) {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	c.used[obj] = true
}

// exported lists pkg's exported package-level functions, constants and
// variables, and the exported methods and struct fields of its named types.
func (c *census) exported(pkg *types.Package) []types.Object {
	var out []types.Object
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() {
			continue
		}
		tn, ok := obj.(*types.TypeName)
		if !ok {
			out = append(out, obj)
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				out = append(out, m)
			}
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				// Tagged fields are read by reflection (encoding/json).
				if f := st.Field(i); f.Exported() && st.Tag(i) == "" {
					out = append(out, f)
				}
			}
		}
	}
	return out
}

// satisfiesInterface reports whether obj is a method that helps its
// receiver satisfy a module interface or one of censusStdInterfaces: such
// a method is reached by dynamic dispatch, which records no reference.
func (c *census) satisfiesInterface(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	base := recv.Type()
	if p, ok := base.(*types.Pointer); ok {
		base = p.Elem()
	}
	for _, it := range c.ifaces {
		if m, _, _ := types.LookupFieldOrMethod(it, false, fn.Pkg(), fn.Name()); m != nil && (types.Implements(base, it) || types.Implements(types.NewPointer(base), it)) {
			return true
		}
	}
	return false
}

func censusKey(dir string, obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		if recv := o.Type().(*types.Signature).Recv(); recv != nil {
			return dir + "." + typeName(recv.Type()) + "." + o.Name()
		}
	case *types.Var:
		if o.IsField() {
			return dir + "." + fieldOwner(o) + "." + o.Name()
		}
	}
	return dir + "." + obj.Name()
}

func typeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	if n, ok := t.(*types.Named); ok {
		return n.Obj().Name()
	}
	return t.String()
}

// fieldOwner names the package-level type whose struct declares f.
func fieldOwner(f *types.Var) string {
	scope := f.Pkg().Scope()
	for _, name := range scope.Names() {
		if st, ok := derefStruct(scope.Lookup(name).Type()); ok {
			for i := 0; i < st.NumFields(); i++ {
				if st.Field(i) == f {
					return name
				}
			}
		}
	}
	return "?"
}

func derefStruct(t types.Type) (*types.Struct, bool) {
	if t == nil {
		return nil, false
	}
	if p, ok := t.Underlying().(*types.Pointer); ok {
		t = p.Elem()
	}
	st, ok := t.Underlying().(*types.Struct)
	return st, ok
}
