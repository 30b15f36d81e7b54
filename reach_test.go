package whereru

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreachedClasses are the reasons a declaration no binary reaches may
// stay in product code; testdata/unreached.txt's header says what each
// means. "queued" alone takes an argument: the test file whose retirement
// deletes the declaration.
var unreachedClasses = map[string]bool{"oracle": true, "helper": true, "hook": true, "queued": true}

// TestProductReachability holds product code to what a binary reaches.
// The roots are the main packages under cmd/ and the bench module: their
// main functions and package-level variables, and the init functions of
// every package they link. From them it follows every
// identifier use go/types resolves (instantiations mapped to their generic
// origin) to a fixed point. A method no use names still counts as
// reached when its receiver type is reached and some interface in the
// checked packages or their imports has a method of that name and
// signature (String, ServeHTTP, Int63…): it may be called dynamically.
//
// Every top-level func, method, type, var and const under internal/ that
// stays unreached must be listed in testdata/unreached.txt with a class
// (unreachedClasses), and every line there must still list one. A line
// for a whole package (dir.*) fails as soon as a binary reaches any of
// the package, so a queued package cannot come back piece by piece.
func TestProductReachability(t *testing.T) {
	fset, files := sourceTree(t)
	r := newReach(fset)
	byPkg := map[string][]*ast.File{}
	for _, f := range files {
		if !f.test {
			dir := path.Dir(f.path)
			byPkg[dir] = append(byPkg[dir], f.ast)
		}
	}
	dirs := make([]string, 0, len(byPkg))
	for dir := range byPkg {
		dirs = append(dirs, dir)
	}
	sort.Strings(dirs)
	for _, dir := range dirs {
		if _, err := r.check("whereru/"+dir, byPkg); err != nil {
			t.Fatal(err)
		}
	}
	unreached := r.unreached()
	if len(r.decls) < 1000 || len(unreached) == len(r.decls) {
		t.Fatalf("%d declarations, %d unreached: the pass no longer sees the tree", len(r.decls), len(unreached))
	}

	const allow = "testdata/unreached.txt"
	lines, err := readAllowlist(allow)
	if err != nil {
		t.Fatal(err)
	}
	listed, isUnreached := map[string]bool{}, map[*decl]bool{}
	for _, d := range unreached {
		isUnreached[d] = true
	}
	for _, l := range lines {
		class, file, _ := strings.Cut(l.class, " ")
		switch {
		case !unreachedClasses[class] || (class == "queued") != (file != ""):
			t.Errorf("%s:%d: %s has class %q, not one of oracle, helper, hook, queued <file>_test.go", allow, l.line, l.key, l.class)
		case class == "queued" && !isPackageTestFile(l.key, file):
			t.Errorf("%s:%d: %s is queued on %q, which is not a test file of its package", allow, l.line, l.key, file)
		}
		matched := false
		for _, d := range unreached {
			if l.covers(d.key) {
				matched, listed[d.key] = true, true
			}
		}
		if strings.HasSuffix(l.key, ".*") {
			for _, d := range r.decls {
				if l.covers(d.key) && !isUnreached[d] {
					t.Errorf("%s:%d: %s is listed but %s is reached by a binary (%s)", allow, l.line, l.key, d.key, fset.Position(d.pos))
				}
			}
		}
		if !matched {
			why := "is gone"
			if d := r.byKey[l.key]; d != nil {
				why = fmt.Sprintf("is reached by a binary (%s)", fset.Position(d.pos))
			}
			t.Errorf("%s:%d: %s is listed but %s: drop the line", allow, l.line, l.key, why)
		}
	}
	for _, d := range unreached {
		if !listed[d.key] {
			t.Errorf("%s: %s is reached by no binary: delete it, move it to a _test.go file, or allowlist it with a class", fset.Position(d.pos), d.key)
		}
	}
}

// decl is one top-level declaration of the tree.
type decl struct {
	key  string // internal/dns.NewQuery, internal/dns.MemNet.SetTap
	pos  token.Pos
	obj  types.Object
	uses []types.Object // the tree objects its declaration names
}

type reach struct {
	fset    *token.FileSet
	std     types.Importer
	pkgs    map[string]*types.Package
	info    *types.Info
	decls   []*decl
	byObj   map[types.Object]*decl
	byKey   map[string]*decl
	roots   []*decl
	inits   []*decl
	methods []*decl
}

func newReach(fset *token.FileSet) *reach {
	return &reach{
		fset:  fset,
		std:   importer.Default(),
		pkgs:  map[string]*types.Package{},
		info:  &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}, Types: map[ast.Expr]types.TypeAndValue{}},
		byObj: map[types.Object]*decl{},
		byKey: map[string]*decl{},
	}
}

// check type-checks the package at import path p from byPkg (keyed by
// directory), its tree dependencies first, and records its declarations.
func (r *reach) check(p string, byPkg map[string][]*ast.File) (*types.Package, error) {
	if pkg, ok := r.pkgs[p]; ok {
		if pkg == nil {
			return nil, fmt.Errorf("import cycle through %s", p)
		}
		return pkg, nil
	}
	dir := strings.TrimPrefix(p, "whereru/")
	files := byPkg[dir]
	if len(files) == 0 {
		return nil, fmt.Errorf("%s: no non-test Go files", dir)
	}
	r.pkgs[p] = nil
	conf := types.Config{Importer: importerFunc(func(imp string) (*types.Package, error) {
		if strings.HasPrefix(imp, "whereru/") {
			return r.check(imp, byPkg)
		}
		return r.std.Import(imp)
	})}
	pkg, err := conf.Check(p, r.fset, files, r.info)
	if err != nil {
		return nil, err
	}
	r.pkgs[p] = pkg
	root := !strings.HasPrefix(dir, "internal/")
	for _, f := range files {
		for _, d := range f.Decls {
			switch d := d.(type) {
			case *ast.FuncDecl:
				fn := r.info.Defs[d.Name].(*types.Func)
				dc := r.declare(dir, fn, d)
				switch {
				case d.Recv != nil:
					r.methods = append(r.methods, dc)
				case d.Name.Name == "init":
					r.inits = append(r.inits, dc)
				case root && d.Name.Name == "main":
					r.roots = append(r.roots, dc)
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						r.declare(dir, r.info.Defs[s.Name], s)
					case *ast.ValueSpec:
						for _, name := range s.Names {
							if name.Name == "_" {
								continue
							}
							dc := r.declare(dir, r.info.Defs[name], s)
							if root && d.Tok == token.VAR {
								r.roots = append(r.roots, dc)
							}
						}
					}
				}
			}
		}
	}
	return pkg, nil
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// declare records obj, declared by node in dir, with every tree object
// node names.
func (r *reach) declare(dir string, obj types.Object, node ast.Node) *decl {
	key := dir + "." + obj.Name()
	if fn, ok := obj.(*types.Func); ok {
		if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
			key = dir + "." + receiverName(recv.Type()).Obj().Name() + "." + obj.Name()
		}
	}
	d := &decl{key: key, pos: obj.Pos(), obj: obj}
	ast.Inspect(node, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok {
			if used := r.info.Uses[id]; used != nil && used.Pkg() != nil && strings.HasPrefix(used.Pkg().Path(), "whereru/") {
				d.uses = append(d.uses, origin(used))
			}
		}
		return true
	})
	// An iota constant without its own type and value takes the
	// group's: its type is used as much as the constant is.
	if c, ok := obj.(*types.Const); ok {
		if n, ok := c.Type().(*types.Named); ok {
			d.uses = append(d.uses, n.Obj())
		}
	}
	r.decls = append(r.decls, d)
	r.byObj[obj], r.byKey[key] = d, d
	return d
}

func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// receiverName is the named type of a method receiver, through a pointer
// and any instantiation.
func receiverName(t types.Type) *types.Named {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named).Origin()
}

// unreached walks from the roots to a fixed point and returns the
// declarations under internal/ left over, in tree order.
func (r *reach) unreached() []*decl {
	reached := map[*decl]bool{}
	var work []*decl
	mark := func(d *decl) {
		if d != nil && !reached[d] {
			reached[d] = true
			work = append(work, d)
		}
	}
	linked := map[*types.Package]bool{}
	var link func(p *types.Package)
	link = func(p *types.Package) {
		if !linked[p] {
			linked[p] = true
			for _, imp := range p.Imports() {
				link(imp)
			}
		}
	}
	for _, d := range r.roots {
		mark(d)
		link(d.obj.Pkg())
	}
	for _, d := range r.inits {
		if linked[d.obj.Pkg()] {
			mark(d)
		}
	}
	dynamic := r.interfaceMethods()
	for len(work) > 0 {
		for len(work) > 0 {
			d := work[len(work)-1]
			work = work[:len(work)-1]
			for _, u := range d.uses {
				mark(r.byObj[u])
			}
		}
		for _, m := range r.methods {
			if reached[m] {
				continue
			}
			fn := m.obj.(*types.Func)
			sig := fn.Type().(*types.Signature)
			if !reached[r.byObj[receiverName(sig.Recv().Type()).Obj()]] {
				continue
			}
			for _, im := range dynamic[fn.Name()] {
				if types.Identical(sig, im.Type()) {
					mark(m)
					break
				}
			}
		}
	}
	var out []*decl
	for _, d := range r.decls {
		if !reached[d] && strings.HasPrefix(d.key, "internal/") {
			out = append(out, d)
		}
	}
	return out
}

// interfaceMethods indexes by name the methods of every interface the
// checked packages declare or write out, and of every exported interface
// of the packages they import, transitively.
func (r *reach) interfaceMethods() map[string][]*types.Func {
	out := map[string][]*types.Func{}
	add := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok {
			for i := 0; i < it.NumMethods(); i++ {
				m := it.Method(i)
				out[m.Name()] = append(out[m.Name()], m)
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	seen := map[*types.Package]bool{}
	var visit func(p *types.Package)
	visit = func(p *types.Package) {
		if p == nil || seen[p] {
			return
		}
		seen[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, imp := range p.Imports() {
			visit(imp)
		}
	}
	for _, p := range r.pkgs {
		visit(p)
	}
	for _, tv := range r.info.Types {
		if _, ok := tv.Type.(*types.Interface); ok && tv.IsType() {
			add(tv.Type)
		}
	}
	return out
}

// isPackageTestFile reports whether name is a test file in the package of
// the allowlist key.
func isPackageTestFile(key, name string) bool {
	if !strings.HasSuffix(name, "_test.go") || strings.Contains(name, "/") {
		return false
	}
	dir, _, _ := strings.Cut(key, ".")
	_, err := os.Stat(filepath.Join(filepath.FromSlash(dir), name))
	return err == nil
}

// allowLine is one line of the allowlist: "key  class: reason". A key
// ending in ".*" covers a whole package.
type allowLine struct {
	line       int
	key, class string
}

func (l allowLine) covers(key string) bool {
	if pkg, ok := strings.CutSuffix(l.key, ".*"); ok {
		dir, _, _ := strings.Cut(key, ".")
		return dir == pkg
	}
	return key == l.key
}

func readAllowlist(name string) ([]allowLine, error) {
	f, err := os.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []allowLine
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		key, rest, _ := strings.Cut(text, " ")
		class, about, _ := strings.Cut(strings.TrimSpace(rest), ":")
		if strings.TrimSpace(about) == "" {
			class = "" // a class without a reason is no class
		}
		out = append(out, allowLine{n, key, strings.TrimSpace(class)})
	}
	return out, sc.Err()
}
