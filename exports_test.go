package dmamem

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

// reservedExports are the exported internal/ names that no non-test code
// reaches yet. Each entry names the ROADMAP item that will use or delete it;
// anything else that only tests reach is deleted, or unexported when a test
// keeps it as the reference for production code.
var reservedExports = map[string]string{
	"controller.Controller.GatedCount":      "item 1 reads it into the slack ledger",
	"controller.Controller.PeakBufferBytes": "item 7 reports it against the §4.1.4 bound",
	"controller.Controller.Slack":           "item 1 replaces it with the ledger's per-term methods",
	"core.Calibrate":                        "item 10 reports client degradation from it",
	"exact.DefaultConfig":                   "item 2 runs the exact model beside the fluid one",
	"exact.Result.UF":                       "item 2 compares it with the fluid uf",
	"exact.Run":                             "item 2 runs the exact model beside the fluid one",
	"metrics.Report.ClientDegradation":      "item 10 reports it beside the CP-Limit",
}

// TestExportedNamesHaveCallers type-checks every package of the module and
// of perfbench from source, without test files, and counts where each
// exported package-level name and method of internal/ is used. Struct fields
// are not counted. A concrete method counts as used when its type implements
// a standard-library interface, or a module interface whose method is called,
// with that method. The test logs the names that only their own package uses
// and fails when a name that no non-test code reaches is not reserved.
func TestExportedNamesHaveCallers(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the module and its standard-library imports from source")
	}
	s := loadModule(t, ".")

	var unreached, ownOnly []string
	for _, e := range s.exports {
		switch users := s.users[e.obj]; {
		case s.crossPackage(e.obj):
		case len(users) == 0 && !s.viaInterface(e.obj):
			unreached = append(unreached, e.name)
		case len(users) == 1:
			ownOnly = append(ownOnly, e.name)
		}
	}
	exposed := s.exposed()
	for i, name := range ownOnly {
		obj := s.byName[name]
		named, _ := obj.Type().(*types.Named)
		_, isConst := obj.(*types.Const)
		switch {
		case exposed[obj]:
			ownOnly[i] += " (a type that a name used by another package carries)"
		case isConst && named != nil && exposed[named.Obj()]:
			ownOnly[i] += " (a value of such a type)"
		}
	}
	t.Logf("%d exported names in internal/; %d reached by no non-test code, %d only by their own package",
		len(s.exports), len(unreached), len(ownOnly))
	t.Logf("used only inside their own package:\n\t%s", strings.Join(ownOnly, "\n\t"))
	t.Logf("reached by no non-test code:\n\t%s", strings.Join(unreached, "\n\t"))

	seen := map[string]bool{}
	for _, name := range unreached {
		seen[name] = true
		if _, ok := reservedExports[name]; !ok {
			t.Errorf("%s is exported but only tests reach it: delete it, or unexport it if a test keeps it as a reference", name)
		}
	}
	for name := range reservedExports {
		if !seen[name] {
			t.Logf("reserved name %s is now reached or gone; its reservedExports entry can go", name)
		}
	}
}

type exported struct {
	name string // pkg.Name or pkg.Type.Method, pkg relative to internal/
	obj  types.Object
}

type moduleScan struct {
	exports []exported
	byName  map[string]types.Object
	// users maps an internal/ object to the module packages whose
	// non-test code uses it.
	users map[types.Object]map[string]bool
	// ifaces are the module's interfaces whose methods its non-test
	// code calls, and every interface the standard library declares.
	ifaces map[*types.Interface]bool
}

// crossPackage reports whether non-test code outside obj's package uses it.
func (s *moduleScan) crossPackage(obj types.Object) bool {
	for ip := range s.users[obj] {
		if ip != obj.Pkg().Path() {
			return true
		}
	}
	return false
}

// exposed returns the internal/ types that another package can hold a
// value of without naming them: the types in the signature of a name
// another package uses or that reservedExports keeps, and, through
// exported struct fields, the types those carry. Unexporting one would
// leave that package a value whose type it cannot name.
func (s *moduleScan) exposed() map[types.Object]bool {
	out := map[types.Object]bool{}
	seen := map[types.Type]bool{}
	var walk func(t types.Type)
	walk = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch t := t.(type) {
		case *types.Named:
			if obj := t.Origin().Obj(); obj.Pkg() != nil && strings.HasPrefix(obj.Pkg().Path(), "dmamem/internal/") {
				out[obj] = true
				walk(t.Underlying())
			}
		case *types.Pointer:
			walk(t.Elem())
		case *types.Slice:
			walk(t.Elem())
		case *types.Array:
			walk(t.Elem())
		case *types.Map:
			walk(t.Key())
			walk(t.Elem())
		case *types.Chan:
			walk(t.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{t.Params(), t.Results()} {
				for i := 0; i < tup.Len(); i++ {
					walk(tup.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < t.NumFields(); i++ {
				if f := t.Field(i); f.Exported() {
					walk(f.Type())
				}
			}
		}
	}
	for _, e := range s.exports {
		if _, ok := reservedExports[e.name]; ok || s.crossPackage(e.obj) {
			if _, isType := e.obj.(*types.TypeName); isType {
				walk(e.obj.Type().Underlying())
			} else {
				walk(e.obj.Type())
			}
		}
	}
	return out
}

// viaInterface reports whether a method can be reached through an interface
// call that the use scan does not see as a use of the method itself.
func (s *moduleScan) viaInterface(obj types.Object) bool {
	fn, ok := obj.(*types.Func)
	if !ok {
		return false
	}
	recv := fn.Type().(*types.Signature).Recv()
	if recv == nil {
		return false
	}
	t := recv.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	ptr := types.NewPointer(t)
	for it := range s.ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() == fn.Name() && (types.Implements(t, it) || types.Implements(ptr, it)) {
				return true
			}
		}
	}
	return false
}

// loadModule type-checks, from source and without test files, every package
// under root (module dmamem) and under its perfbench module, whose path
// dmamem/perfbench keeps import paths equal to "dmamem/" plus the directory.
func loadModule(t *testing.T, root string) *moduleScan {
	t.Helper()
	dirs := map[string]string{} // import path -> directory
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		name := d.Name()
		if path != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		ip := "dmamem"
		if rel != "." {
			ip += "/" + filepath.ToSlash(rel)
		}
		dirs[ip] = path
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// The source importer reads build.Default; without cgo it type-checks
	// the standard library's pure-Go files and runs no C tool chain.
	defer func(cgo bool) { build.Default.CgoEnabled = cgo }(build.Default.CgoEnabled)
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &loader{fset: fset, std: importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		parsed: map[string][]*ast.File{}, recv: map[*ast.Ident]bool{},
		pkgs: map[string]*types.Package{}, infos: map[string]*types.Info{}}
	var paths []string
	for ip, dir := range dirs {
		bp, err := build.Default.ImportDir(dir, 0)
		if _, ok := err.(*build.NoGoError); ok || err == nil && len(bp.GoFiles) == 0 {
			continue // no package, or tests only
		} else if err != nil {
			t.Fatal(err)
		}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			l.add(ip, f)
		}
		paths = append(paths, ip)
	}
	sort.Strings(paths)
	for _, ip := range paths {
		if _, err := l.Import(ip); err != nil {
			t.Fatal(err)
		}
	}

	s := &moduleScan{users: map[types.Object]map[string]bool{}, ifaces: map[*types.Interface]bool{}}
	for _, ip := range paths {
		pkg := l.pkgs[ip]
		rel, ok := strings.CutPrefix(ip, "dmamem/internal/")
		if !ok {
			continue
		}
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			if obj.Exported() {
				s.exports = append(s.exports, exported{rel + "." + n, obj})
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || !tn.Exported() || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok || types.IsInterface(named) {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					s.exports = append(s.exports, exported{rel + "." + n + "." + m.Name(), m})
				}
			}
		}
	}
	sort.Slice(s.exports, func(i, j int) bool { return s.exports[i].name < s.exports[j].name })
	s.byName = map[string]types.Object{}
	for _, e := range s.exports {
		s.byName[e.name] = e.obj
	}

	for _, ip := range paths {
		for id, obj := range l.infos[ip].Uses {
			if fn, ok := obj.(*types.Func); ok {
				obj = fn.Origin()
				if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
					if it, ok := recv.Type().Underlying().(*types.Interface); ok {
						s.ifaces[it] = true
					}
				}
			}
			if obj.Pkg() == nil || !strings.HasPrefix(obj.Pkg().Path(), "dmamem/internal/") {
				continue
			}
			if l.recv[id] {
				continue // a method's receiver type does not use its type
			}
			if s.users[obj] == nil {
				s.users[obj] = map[string]bool{}
			}
			s.users[obj][ip] = true
		}
	}

	// Every interface declared at package level in a standard-library
	// package the module imports, directly or not, and error.
	s.ifaces[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = true
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		if !strings.HasPrefix(p.Path(), "dmamem") {
			scope := p.Scope()
			for _, n := range scope.Names() {
				if tn, ok := scope.Lookup(n).(*types.TypeName); ok && tn.Exported() {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
						s.ifaces[it] = true
					}
				}
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, ip := range paths {
		walk(l.pkgs[ip])
	}
	return s
}

// loader type-checks module packages from their parsed non-test files and
// hands every other import to the standard library's source importer.
type loader struct {
	fset   *token.FileSet
	std    types.ImporterFrom
	parsed map[string][]*ast.File
	recv   map[*ast.Ident]bool // identifiers in method receivers
	pkgs   map[string]*types.Package
	infos  map[string]*types.Info
}

// add records a parsed file of the module package ip.
func (l *loader) add(ip string, f *ast.File) {
	l.parsed[ip] = append(l.parsed[ip], f)
	for _, d := range f.Decls {
		if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
			ast.Inspect(fd.Recv, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok {
					l.recv[id] = true
				}
				return true
			})
		}
	}
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, "", 0)
}

func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return p, nil
	}
	if _, ok := l.parsed[path]; !ok {
		return l.std.ImportFrom(path, dir, mode)
	}
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: l}
	p, err := conf.Check(path, l.fset, l.parsed[path], info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path], l.infos[path] = p, info
	return p, nil
}
