package sprout_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// callerAllowlist names the exports the caller check keeps although no
// non-test code calls or sets them, each with the reason. Keys are
// "<package path>.<Func>", "<package path>.<Type>.<Method>" or
// "<package path>.<Type>.<Field>". A hook only its own package's tests use
// is not listed: it lives in that package's _test.go files.
var callerAllowlist = map[string]string{
	// Oracles and hooks the tests of other packages drive.
	"sprout/internal/arena.CheckBalanced":       "the arena leak oracle erasure's decode tests run",
	"sprout/internal/metrics.DocMarkdown":       "renders docs/metrics.md, which obs's test keeps in sync with the registry",
	"sprout/internal/metrics.Lint":              "the exposition conformance lint obs's and e2e's tests run on live registries",
	"sprout/internal/metrics.ParseText":         "the strict exposition parser obs's and e2e's tests scrape with",
	"sprout/internal/objstore.OSD.Chunks":       "e2e's immutability ledger reads every stored chunk in place, parked and staged stripes included",
	"sprout/internal/objstore.Pool.StagedPuts":  "the staged-put leak check transport's striped-writer tests run",
	"sprout/internal/repair.Manager.WaitIdle":   "the quiesce point the facade's and e2e's repair tests wait on",
	"sprout/internal/router.Router.OwnerOf":     "the ring owner sproutstore's tests check routing against",
	"sprout/internal/router.Router.RemoveShard": "the leave of e2e's cross-shard coherence chaos test",
	"sprout/internal/stack.Stack.Payload":       "the ingest oracle: the bytes New wrote for an object",
	"sprout/internal/transport.Chaos.Reset":     "the chaos harness: e2e scenarios heal the network between phases",
	"sprout/internal/transport.Chaos.Rule":      "sproutstore's flag test reads back the rules -chaos parsed",

	// Kept for callers outside the tree.
	"sprout.NewMetricsRegistry":                    "the metrics hook the README documents for library users",
	"sprout/internal/router.Router.SyncMembership": "how a router in another process finds the shards of sproutstore -mode serve -controllers N",

	// Limits on input from outside the program: they stay settable even
	// though every caller in the tree takes the default.
	"sprout/internal/transport.ClientConfig.RequestTimeout": "bounds a round trip to a peer the program does not control",
	"sprout/internal/transport.ClientConfig.MaxFrameSize":   "bounds a frame read from a peer the program does not control",
	"sprout/internal/transport.ServerConfig.MaxFrameSize":   "bounds a frame read from a peer the program does not control",
}

// TestEveryExportHasACaller type-checks every non-test Go file of the module
// and fails on an exported function or method that no non-test file
// references, and on an exported field of an exported struct type that no
// non-test code sets. benchmark/, cmd/ and examples/ count as callers;
// benchmark/'s own declarations are not checked, since that directory
// changes only with the benchmark.
func TestEveryExportHasACaller(t *testing.T) {
	found, err := findOrphans(".", func(dir string) bool {
		return dir == "benchmark" || strings.HasPrefix(dir, "benchmark/")
	})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, o := range found {
		seen[o.name] = true
		if _, ok := callerAllowlist[o.name]; !ok {
			t.Errorf("%s: %s", o.name, o.why)
		}
	}
	for name := range callerAllowlist {
		if !seen[name] {
			t.Errorf("%s: allowlisted, but it now has a non-test caller or is gone; drop the entry", name)
		}
	}
}

// TestCallerCheckFixture pins what the check flags on a small module under
// testdata/callers: a method whose name another package also uses, and a
// field only a _test.go sets, but not an interface implementation, a field
// written with ++ or a JSON-tagged field.
func TestCallerCheckFixture(t *testing.T) {
	found, err := findOrphans(filepath.Join("testdata", "callers"), func(string) bool { return false })
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]bool{}
	for _, o := range found {
		got[o.name] = true
	}
	for _, tc := range []struct {
		name    string
		flagged bool
	}{
		{"fixture/store.Store.Sub", true},       // calc.Sub is called; this method is not
		{"fixture/store.Config.Limit", true},    // only store_test.go sets it
		{"fixture/store.Config.Depth", true},    // only its own withDefaults sets it
		{"fixture/store.Store.String", false},   // implements fmt.Stringer
		{"fixture/store.Store.Size", false},     // implements calc.Sizer, called through it
		{"fixture/store.Config.Count", false},   // written only with ++
		{"fixture/store.Config.Name", false},    // JSON-decoded
		{"fixture/store.Config.Shards", false},  // set by a keyed literal
		{"fixture/store.Config.Level", false},   // its address goes to flag.IntVar
		{"fixture/store.Config.Retries", false}, // assigned
		{"fixture/calc.Sub", false},             // called by main
	} {
		if got[tc.name] != tc.flagged {
			t.Errorf("%s: flagged %v, want %v", tc.name, got[tc.name], tc.flagged)
		}
		delete(got, tc.name)
	}
	for name := range got {
		t.Errorf("%s: flagged, not in the table", name)
	}
}

// orphan is one finding: the export's name and what is missing.
type orphan struct{ name, why string }

// checkedPkg is one type-checked package of the module.
type checkedPkg struct {
	dir   string // relative to the module root, slash-separated
	files []*ast.File
	types *types.Package
	info  *types.Info
}

// findOrphans loads the module rooted at root and returns its exported
// functions and methods that no non-test file references, and its exported
// struct fields that no non-test code writes. Declarations in a directory
// for which skip reports true are not checked, but their uses count.
func findOrphans(root string, skip func(dir string) bool) ([]orphan, error) {
	pkgs, err := loadModule(root)
	if err != nil {
		return nil, err
	}
	used := map[types.Object]bool{}
	ifaces := usedInterfaces(pkgs)
	for _, p := range pkgs {
		for _, obj := range p.info.Uses {
			used[origin(obj)] = true
		}
	}
	written := fieldWrites(pkgs)

	var out []orphan
	for _, p := range pkgs {
		if skip(p.dir) {
			continue
		}
		scope := p.types.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			prefix := p.types.Path() + "." + name
			switch obj := obj.(type) {
			case *types.Func:
				if obj.Exported() && !used[obj] {
					out = append(out, orphan{prefix, "no non-test file calls it"})
				}
			case *types.TypeName:
				if obj.IsAlias() {
					continue
				}
				named, ok := obj.Type().(*types.Named)
				if !ok {
					continue
				}
				for i := 0; i < named.NumMethods(); i++ {
					m := named.Method(i)
					if m.Exported() && !used[m] && !implementsUsed(named, m.Name(), ifaces) {
						out = append(out, orphan{prefix + "." + m.Name(), "no non-test file calls it"})
					}
				}
				st, ok := named.Underlying().(*types.Struct)
				if !ok || !obj.Exported() {
					continue
				}
				for i := 0; i < st.NumFields(); i++ {
					f := st.Field(i)
					if f.Exported() && !f.Embedded() && st.Tag(i) == "" && !written[f] {
						out = append(out, orphan{prefix + "." + f.Name(), "no non-test code sets it"})
					}
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out, nil
}

// origin maps an object of an instantiated generic type or function back to
// its declaration.
func origin(obj types.Object) types.Object {
	switch obj := obj.(type) {
	case *types.Func:
		return obj.Origin()
	case *types.Var:
		return obj.Origin()
	}
	return obj
}

// usedInterfaces returns every interface a method may be called through:
// each interface type some non-test expression of the module has, and every
// named interface of the standard library packages it imports.
func usedInterfaces(pkgs []*checkedPkg) []*types.Interface {
	var out []*types.Interface
	seen := map[types.Type]bool{}
	add := func(t types.Type) {
		if iface, ok := t.Underlying().(*types.Interface); ok && !seen[t] && iface.NumMethods() > 0 {
			seen[t] = true
			out = append(out, iface)
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, iface := range stdUnnamed() {
		add(iface)
	}
	module := map[*types.Package]bool{}
	for _, p := range pkgs {
		module[p.types] = true
		for _, tv := range p.info.Types {
			add(tv.Type)
		}
		for _, obj := range p.info.Uses {
			if tn, ok := obj.(*types.TypeName); ok {
				add(tn.Type())
			}
		}
	}
	visited := map[*types.Package]bool{}
	var walk func(*types.Package)
	walk = func(pkg *types.Package) {
		if visited[pkg] {
			return
		}
		visited[pkg] = true
		if !module[pkg] {
			scope := pkg.Scope()
			for _, name := range scope.Names() {
				if tn, ok := scope.Lookup(name).(*types.TypeName); ok && tn.Exported() {
					add(tn.Type())
				}
			}
		}
		for _, imp := range pkg.Imports() {
			walk(imp)
		}
	}
	for _, p := range pkgs {
		walk(p.types)
	}
	return out
}

// stdUnnamed returns the unnamed interfaces errors.Is, errors.As and
// errors.Unwrap look for.
func stdUnnamed() []*types.Interface {
	errType := types.Universe.Lookup("error").Type()
	anyType := types.Universe.Lookup("any").Type()
	method := func(name string, params, results []types.Type) *types.Interface {
		tuple := func(ts []types.Type) *types.Tuple {
			vars := make([]*types.Var, len(ts))
			for i, t := range ts {
				vars[i] = types.NewParam(token.NoPos, nil, "", t)
			}
			return types.NewTuple(vars...)
		}
		sig := types.NewSignatureType(nil, nil, nil, tuple(params), tuple(results), false)
		return types.NewInterfaceType([]*types.Func{types.NewFunc(token.NoPos, nil, name, sig)}, nil).Complete()
	}
	return []*types.Interface{
		method("Unwrap", nil, []types.Type{errType}),
		method("Unwrap", nil, []types.Type{types.NewSlice(errType)}),
		method("Is", []types.Type{errType}, []types.Type{types.Typ[types.Bool]}),
		method("As", []types.Type{anyType}, []types.Type{types.Typ[types.Bool]}),
	}
}

// implementsUsed reports whether named or a pointer to it implements one of
// ifaces that has a method called method.
func implementsUsed(named *types.Named, method string, ifaces []*types.Interface) bool {
	if named.TypeParams().Len() > 0 {
		return false
	}
	if _, ok := named.Underlying().(*types.Interface); ok {
		return false
	}
	ptr := types.NewPointer(named)
	for _, iface := range ifaces {
		if has(iface, method) && (types.Implements(named, iface) || types.Implements(ptr, iface)) {
			return true
		}
	}
	return false
}

func has(iface *types.Interface, method string) bool {
	for i := 0; i < iface.NumMethods(); i++ {
		if iface.Method(i).Name() == method {
			return true
		}
	}
	return false
}

// fieldWrites returns every struct field some non-test code writes: as a
// key or position of a composite literal, on the left of an assignment, an
// op-assignment or ++/--, or by taking its address (explicitly, or by
// calling a pointer method on it). A write inside the withDefaults,
// validate or Validate method of the field's own struct type does not count:
// defaulting a field nothing else sets makes it a constant.
func fieldWrites(pkgs []*checkedPkg) map[*types.Var]bool {
	written := map[*types.Var]bool{}
	for _, p := range pkgs {
		info := p.info
		var exempt types.Type // the receiver of the enclosing defaulting method
		mark := func(v *types.Var, owner types.Type) {
			if exempt != nil && owner != nil && types.Identical(deref(owner), exempt) {
				return
			}
			written[v.Origin()] = true
		}
		// markLHS marks the fields an assignment to e writes: the selected
		// field and, through struct values and arrays, the fields holding it.
		markLHS := func(e ast.Expr) {
			for {
				switch x := e.(type) {
				case *ast.ParenExpr:
					e = x.X
					continue
				case *ast.IndexExpr:
					if _, ok := info.TypeOf(x.X).Underlying().(*types.Array); !ok {
						return
					}
					e = x.X
					continue
				case *ast.SelectorExpr:
					sel := info.Selections[x]
					if sel == nil || sel.Kind() != types.FieldVal {
						return
					}
					mark(sel.Obj().(*types.Var), fieldOwner(sel))
					if _, ptr := info.TypeOf(x.X).Underlying().(*types.Pointer); ptr {
						return
					}
					e = x.X
					continue
				}
				return
			}
		}
		visit := func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				t := info.TypeOf(n)
				if t == nil {
					return true
				}
				st, ok := deref(t).Underlying().(*types.Struct)
				if !ok {
					return true
				}
				for i, elt := range n.Elts {
					if kv, ok := elt.(*ast.KeyValueExpr); ok {
						if id, ok := kv.Key.(*ast.Ident); ok {
							if v, ok := info.Uses[id].(*types.Var); ok {
								mark(v, t)
							}
						}
					} else if i < st.NumFields() {
						mark(st.Field(i), t)
					}
				}
			case *ast.AssignStmt:
				for _, lhs := range n.Lhs {
					markLHS(lhs)
				}
			case *ast.IncDecStmt:
				markLHS(n.X)
			case *ast.RangeStmt:
				if n.Tok == token.ASSIGN {
					if n.Key != nil {
						markLHS(n.Key)
					}
					if n.Value != nil {
						markLHS(n.Value)
					}
				}
			case *ast.UnaryExpr:
				if n.Op == token.AND {
					markLHS(n.X)
				}
			case *ast.SelectorExpr:
				// x.f.M() with a pointer method M takes &x.f.
				sel := info.Selections[n]
				if sel == nil || sel.Kind() != types.MethodVal {
					return true
				}
				recv := sel.Obj().(*types.Func).Type().(*types.Signature).Recv()
				if recv == nil {
					return true
				}
				if _, ptr := recv.Type().(*types.Pointer); !ptr {
					return true
				}
				if _, ptr := info.TypeOf(n.X).Underlying().(*types.Pointer); !ptr {
					markLHS(n.X)
				}
			}
			return true
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				exempt = nil
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					switch fd.Name.Name {
					case "withDefaults", "validate", "Validate":
						exempt = deref(info.TypeOf(fd.Recv.List[0].Type))
					}
				}
				ast.Inspect(d, visit)
			}
		}
	}
	return written
}

// fieldOwner returns the struct type a selected field belongs to: the
// receiver's type, or the embedded field's type the selection goes through.
func fieldOwner(sel *types.Selection) types.Type {
	t := sel.Recv()
	idx := sel.Index()
	for _, i := range idx[:len(idx)-1] {
		st, ok := deref(t).Underlying().(*types.Struct)
		if !ok {
			return nil
		}
		t = st.Field(i).Type()
	}
	return t
}

func deref(t types.Type) types.Type {
	if p, ok := t.Underlying().(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// listedPkg is the part of `go list -json` the loader reads.
type listedPkg struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Imports    []string
	Standard   bool
}

// loadModule type-checks every non-test file of every package of the module
// rooted at root, in dependency order. Standard-library imports come from
// their export data, which the go command builds or finds in its cache.
func loadModule(root string) ([]*checkedPkg, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	out, err := goList(abs, "-deps", "-json=ImportPath,Dir,GoFiles,Imports,Standard", "./...")
	if err != nil {
		return nil, err
	}
	var listed []listedPkg
	std := map[string]bool{}
	for dec := json.NewDecoder(bytes.NewReader(out)); ; {
		var lp listedPkg
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, err
		}
		if lp.Standard {
			continue
		}
		listed = append(listed, lp)
		for _, imp := range lp.Imports {
			std[imp] = true
		}
	}
	for _, lp := range listed {
		delete(std, lp.ImportPath)
	}
	delete(std, "unsafe")
	exports := map[string]string{}
	if len(std) > 0 {
		args := []string{"-deps", "-export", "-f", "{{.ImportPath}}\t{{.Export}}"}
		for path := range std {
			args = append(args, path)
		}
		out, err := goList(abs, args...)
		if err != nil {
			return nil, err
		}
		for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
			if path, file, ok := strings.Cut(line, "\t"); ok {
				exports[path] = file
			}
		}
	}

	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		file, ok := exports[path]
		if !ok || file == "" {
			return nil, fmt.Errorf("no export data for %q", path)
		}
		return os.Open(file)
	})
	module := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p, ok := module[path]; ok {
			return p, nil
		}
		return gc.Import(path)
	})
	var pkgs []*checkedPkg
	for _, lp := range listed {
		rel, err := filepath.Rel(abs, lp.Dir)
		if err != nil {
			return nil, err
		}
		p := &checkedPkg{
			dir: filepath.ToSlash(rel),
			info: &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Defs:       map[*ast.Ident]types.Object{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			},
		}
		for _, name := range lp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(lp.Dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return nil, err
			}
			p.files = append(p.files, f)
		}
		conf := types.Config{Importer: imp}
		p.types, err = conf.Check(lp.ImportPath, fset, p.files, p.info)
		if err != nil {
			return nil, fmt.Errorf("type-checking %s: %w", lp.ImportPath, err)
		}
		module[lp.ImportPath] = p.types
		pkgs = append(pkgs, p)
	}
	return pkgs, nil
}

func goList(dir string, args ...string) ([]byte, error) {
	cmd := exec.Command("go", append([]string{"list"}, args...)...)
	cmd.Dir = dir
	cmd.Env = append(os.Environ(), "GOWORK=off")
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		return nil, errors.New("go list: " + err.Error() + ": " + stderr.String())
	}
	return out, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }
