package whereru

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// TestCommandFlagsDocumented holds each command's package doc to the
// flags its code registers: the usage block (doc lines that begin with a
// tab and a dash) must list exactly the names passed to package flag or
// to a flag.FlagSet, so a flag added, renamed or removed without its
// documentation fails here.
func TestCommandFlagsDocumented(t *testing.T) {
	for _, path := range []string{"cmd/whereru/main.go", "cmd/whereru-serve/main.go"} {
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		documented := map[string]bool{}
		if f.Doc != nil {
			for _, line := range strings.Split(f.Doc.Text(), "\n") {
				if rest, ok := strings.CutPrefix(line, "\t-"); ok {
					documented[strings.Fields(rest)[0]] = true
				}
			}
		}
		registered := registeredFlags(t, path, f)
		if len(registered) == 0 {
			t.Errorf("%s: no flag registrations found", path)
		}
		for _, name := range sortedKeys(registered) {
			if !documented[name] {
				t.Errorf("%s: flag -%s is registered but missing from the package doc's usage block", path, name)
			}
		}
		for _, name := range sortedKeys(documented) {
			if !registered[name] {
				t.Errorf("%s: the package doc lists -%s, which the command does not register", path, name)
			}
		}
	}
}

// registeredFlags returns the names f defines through package flag or a
// flag set made by flag.NewFlagSet: the first argument of Bool, Int,
// String…, the second of BoolVar, IntVar, Var….
func registeredFlags(t *testing.T, path string, f *ast.File) map[string]bool {
	sets := map[string]bool{"flag": true}
	ast.Inspect(f, func(n ast.Node) bool {
		if as, ok := n.(*ast.AssignStmt); ok && len(as.Lhs) == 1 && len(as.Rhs) == 1 {
			if id, ok := as.Lhs[0].(*ast.Ident); ok && isCall(as.Rhs[0], "flag", "NewFlagSet") {
				sets[id.Name] = true
			}
		}
		return true
	})
	defines := map[string]bool{
		"Bool": true, "Duration": true, "Float64": true, "Func": true, "BoolFunc": true,
		"Int": true, "Int64": true, "String": true, "Uint": true, "Uint64": true,
	}
	names := map[string]bool{}
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if x, ok := sel.X.(*ast.Ident); !ok || !sets[x.Name] {
			return true
		}
		arg := -1
		switch m := sel.Sel.Name; {
		case defines[m]:
			arg = 0
		case strings.HasSuffix(m, "Var"):
			arg = 1
		}
		if arg < 0 || arg >= len(call.Args) {
			return true
		}
		var name string
		if lit, ok := call.Args[arg].(*ast.BasicLit); ok && lit.Kind == token.STRING {
			name, _ = strconv.Unquote(lit.Value)
		}
		if name == "" {
			t.Errorf("%s: %s.%s registers a flag whose name is not a string literal", path, sel.X, sel.Sel.Name)
			return true
		}
		names[name] = true
		return true
	})
	return names
}

func isCall(e ast.Expr, pkg, fn string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return false
	}
	x, ok := sel.X.(*ast.Ident)
	return ok && x.Name == pkg && sel.Sel.Name == fn
}

func sortedKeys(m map[string]bool) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
