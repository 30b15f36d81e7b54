package whereru

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// materialisingReaders load a whole journal onto the heap: every
// measurement of every segment at once. They stay exported for bench/ and
// as the oracle the streaming readers are tested against; no program calls
// them, so no program's memory grows with the journal it reads.
var materialisingReaders = map[string]bool{
	"VerifyJournal": true, // store
	"DecodeJournal": true, // store
	"ReplayJournal": true, // (*openintel.Pipeline)
}

// retiredLookups are the by-value point lookups and the map-returning
// ASN helper the cold request path replaced: one Snapshot.Lookup per
// (domain, day), one place that derives a config's ASNs. A text match,
// comments included, as the CI grep it replaces was.
var retiredLookups = regexp.MustCompile(`Snapshot\)\.At\(|MeasuredAt\(|hostASNs\(`)

// TestSourceHygiene parses every Go file under internal/, cmd/, examples/
// and bench/ and fails on what the tree has ruled out:
//   - a hash/crc32 import outside internal/frame, test files included:
//     length+CRC32C framing lives in one place;
//   - an internal/grid import in a non-test file outside internal/grid:
//     collection is Pipeline.Sweep in one process, and the grid's own
//     tests are its only callers;
//   - in non-test files under internal/, cmd/ and examples/: a call of a
//     materialising journal reader (by name, qualified or not: the names
//     are unique in the module), a retired lookup, or a top-level
//     declaration named reference*/Reference* — the oracles are test code.
func TestSourceHygiene(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	for _, root := range []string{"internal", "cmd", "examples", "bench"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
				return err
			}
			src, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			slash, test := filepath.ToSlash(path), strings.HasSuffix(path, "_test.go")
			product := root != "bench" && !test
			mode := parser.ImportsOnly
			if product {
				mode = parser.SkipObjectResolution
			}
			f, err := parser.ParseFile(fset, path, src, mode)
			if err != nil {
				return err
			}
			for _, imp := range f.Imports {
				p, _ := strconv.Unquote(imp.Path.Value)
				if p == "hash/crc32" && !strings.HasPrefix(slash, "internal/frame/") {
					t.Errorf("%s: imports hash/crc32; frame with internal/frame", fset.Position(imp.Pos()))
				}
				if p == "whereru/internal/grid" && !test && !strings.HasPrefix(slash, "internal/grid/") {
					t.Errorf("%s: imports internal/grid; collect with openintel.Pipeline.Sweep", fset.Position(imp.Pos()))
				}
			}
			if !product {
				return nil
			}
			files++
			file := fset.File(f.Pos())
			for _, loc := range retiredLookups.FindAllIndex(src, -1) {
				t.Errorf("%s: %s, a retired lookup; use Snapshot.Lookup and the analyzer's per-config ASN memo", fset.Position(file.Pos(loc[0])), src[loc[0]:loc[1]])
			}
			for _, decl := range f.Decls {
				var names []*ast.Ident
				switch d := decl.(type) {
				case *ast.FuncDecl:
					names = append(names, d.Name)
				case *ast.GenDecl:
					for _, spec := range d.Specs {
						if ts, ok := spec.(*ast.TypeSpec); ok {
							names = append(names, ts.Name)
						} else if vs, ok := spec.(*ast.ValueSpec); ok {
							names = append(names, vs.Names...)
						}
					}
				}
				for _, name := range names {
					if strings.HasPrefix(strings.ToLower(name.Name), "reference") {
						t.Errorf("%s: %s is an oracle; it belongs in a _test.go file", fset.Position(name.Pos()), name.Name)
					}
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				name := ""
				switch fn := call.Fun.(type) {
				case *ast.Ident:
					name = fn.Name
				case *ast.SelectorExpr:
					name = fn.Sel.Name
				}
				if materialisingReaders[name] {
					t.Errorf("%s: call of %s, which holds the whole journal in memory; stream it (store.ReplayJournalFile, store.Tailer)", fset.Position(call.Pos()), name)
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if files < 50 {
		t.Fatalf("parsed %d files: the walk no longer sees the tree", files)
	}
}
