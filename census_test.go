package greencloud_test

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"maps"
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
	// with lp.MustVariable, compare kernels bit for bit with series.Equal
	// and fingerprint golden rows with series.Digest.
	"internal/lp.ArmFault":             "fault-injection hook armed by other packages' tests",
	"internal/lp.DisarmFaults":         "fault-injection hook armed by other packages' tests",
	"internal/lp.Problem.MustVariable": "model-building helper for other packages' tests",
	"internal/series.Equal":            "bit-identity assertion used by other packages' tests",
	"internal/series.Digest":           "row fingerprint the location and weather golden tests pin",
	// Zero-option entry points: the natural call for a library user, even
	// though production always passes options.
	"internal/lp.Problem.Solve":     "zero-option entry point of SolveWithOptions",
	"internal/lp.Problem.SolveFrom": "zero-option entry point of SolveFromWithOptions",
	"internal/milp.Problem.Solve":   "zero-option entry point of SolveWithOptions",
}

// censusWriteAllow lists the exported internal/ struct fields that
// production code reads but never writes, each with its reason: options
// that only tests move off their zero value.  Keys are as in censusAllow.
var censusWriteAllow = map[string]string{}

// censusReadAllow lists the exported internal/ struct fields that
// production code writes but never reads, each with its reason.  Keys are
// as in censusAllow.
var censusReadAllow = map[string]string{
	// Work counters of a search whose runs tests compare: anneal's
	// cancellation tests tell a full run from a stopped one through them.
	"internal/anneal.Result.Iterations":  "anneal's cancellation tests compare runs through the iteration count",
	"internal/anneal.Result.Evaluations": "anneal's cancellation tests compare runs through the evaluation count",
	"internal/gdfs.BlockMeta.Digest":     "the metadata-plane ≡ payload-reference equivalence compares replicas by it",
	"internal/sched.Plan.DegradedReason": "the degradation tests tell a deadline from a solver failure by it",
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
	stale := maps.Clone(censusAllow)
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
				delete(stale, key)
				continue
			}
			dead = append(dead, key+" ("+c.fset.Position(obj.Pos()).String()+")")
		}
	}
	sort.Strings(dead)
	for _, d := range dead {
		t.Errorf("exported but unreached by non-test code: %s", d)
	}
	for key := range stale {
		t.Errorf("censusAllow entry %s no longer names an unreached identifier; drop it", key)
	}
}

// TestOptionFieldsAreWritten fails when an exported struct field under
// internal/ is read by non-test code but never written by it: an option
// that production always leaves at its zero value, which the reach census
// above cannot see.  Writes are keyed and positional composite literals,
// assignments, increments and decrements, and taking the field's address;
// json-tagged fields are decoded from outside input and are skipped.  See
// censusWriteAllow for the deliberate exceptions.
func TestOptionFieldsAreWritten(t *testing.T) {
	c := newCensus(t)
	stale := maps.Clone(censusWriteAllow)
	var unwritten []string
	for _, dir := range c.dirs {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, obj := range c.exported(c.pkgs[dir]) {
			f, ok := obj.(*types.Var)
			if !ok || !f.IsField() || !c.used[f] || c.written[f] {
				continue
			}
			key := censusKey(dir, f)
			if _, ok := censusWriteAllow[key]; ok {
				delete(stale, key)
				continue
			}
			unwritten = append(unwritten, key+" ("+c.fset.Position(f.Pos()).String()+")")
		}
	}
	sort.Strings(unwritten)
	for _, u := range unwritten {
		t.Errorf("read but never written by non-test code: %s", u)
	}
	for key := range stale {
		t.Errorf("censusWriteAllow entry %s no longer names a read-only field; drop it", key)
	}
}

// TestFieldsAreRead fails when an exported struct field under internal/ is
// written by non-test code but never read by it: an output that production
// computes and nothing consumes, which the reach census above counts as
// reached.  A field selection is a read unless it is the target of an
// assignment, an op-assignment or an increment or decrement (x.F[i] = v
// writes F); composite-literal keys are writes.  json-tagged fields are
// encoded for outside readers and are skipped.  See censusReadAllow for the
// deliberate exceptions.
func TestFieldsAreRead(t *testing.T) {
	c := newCensus(t)
	stale := maps.Clone(censusReadAllow)
	var unread []string
	for _, dir := range c.dirs {
		if !strings.HasPrefix(dir, "internal/") {
			continue
		}
		for _, obj := range c.exported(c.pkgs[dir]) {
			f, ok := obj.(*types.Var)
			if !ok || !f.IsField() || !c.written[f] || c.read[f] {
				continue
			}
			key := censusKey(dir, f)
			if _, ok := censusReadAllow[key]; ok {
				delete(stale, key)
				continue
			}
			unread = append(unread, key+" ("+c.fset.Position(f.Pos()).String()+")")
		}
	}
	sort.Strings(unread)
	for _, u := range unread {
		t.Errorf("written but never read by non-test code: %s", u)
	}
	for key := range stale {
		t.Errorf("censusReadAllow entry %s no longer names a write-only field; drop it", key)
	}
}

type census struct {
	fset    *token.FileSet
	std     types.Importer
	dirs    []string                  // module-relative package dirs, "" for the root
	files   map[string][]*ast.File    // dir → parsed non-test files
	pkgs    map[string]*types.Package // dir → checked package
	used    map[types.Object]bool
	written map[types.Object]bool // struct fields non-test code writes
	read    map[types.Object]bool // struct fields non-test code reads
	ifaces  []*types.Interface    // module interfaces, then censusStdInterfaces
}

func newCensus(t *testing.T) *census {
	c := &census{
		fset:    token.NewFileSet(),
		std:     importer.Default(),
		files:   map[string][]*ast.File{},
		pkgs:    map[string]*types.Package{},
		used:    map[types.Object]bool{},
		written: map[types.Object]bool{},
		read:    map[types.Object]bool{},
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
	// Record field writes, and the selectors they write through.
	// Positional composite literals also reference every field of their
	// struct.
	targets := map[*ast.SelectorExpr]bool{}
	for _, f := range c.files[dir] {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				st, ok := derefStruct(info.Types[n].Type)
				if !ok || len(n.Elts) == 0 {
					return true
				}
				if _, keyed := n.Elts[0].(*ast.KeyValueExpr); keyed {
					for _, e := range n.Elts {
						if key, ok := e.(*ast.KeyValueExpr).Key.(*ast.Ident); ok {
							c.written[origin(info.Uses[key])] = true
						}
					}
					return true
				}
				for i := 0; i < st.NumFields(); i++ {
					c.use(st.Field(i))
					c.written[origin(st.Field(i))] = true
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					c.writeField(info, assignTarget(lhs), targets)
				}
			case *ast.IncDecStmt:
				c.writeField(info, assignTarget(n.X), targets)
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					c.writeField(info, n.X, nil)
				}
			}
			return true
		})
	}
	// Every other field selection is a read.  A promoted selector x.M
	// records M; the embedded fields it passes through are reached and
	// read too.
	for expr, sel := range info.Selections {
		if sel.Kind() == types.FieldVal && !targets[expr] {
			c.read[origin(sel.Obj())] = true
		}
		typ := sel.Recv()
		for _, idx := range sel.Index()[:len(sel.Index())-1] {
			st, ok := derefStruct(typ)
			if !ok {
				break
			}
			f := st.Field(idx)
			c.use(f)
			c.read[origin(f)] = true
			typ = f.Type()
		}
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

func (c *census) use(obj types.Object) { c.used[origin(obj)] = true }

// writeField records the struct field that the selector x.F names as
// written, and the selector in targets when that is non-nil; any other
// expression writes no field.
func (c *census) writeField(info *types.Info, x ast.Expr, targets map[*ast.SelectorExpr]bool) {
	sel, ok := ast.Unparen(x).(*ast.SelectorExpr)
	if !ok {
		return
	}
	if s, ok := info.Selections[sel]; ok && s.Kind() == types.FieldVal {
		c.written[origin(s.Obj())] = true
		if targets != nil {
			targets[sel] = true
		}
	}
}

// assignTarget strips the index expressions off an assignment's left-hand
// side: x.F[i] = v writes F.
func assignTarget(x ast.Expr) ast.Expr {
	for {
		ix, ok := ast.Unparen(x).(*ast.IndexExpr)
		if !ok {
			return x
		}
		x = ix.X
	}
}

// origin maps an instantiated generic function or field back to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
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
