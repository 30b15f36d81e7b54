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
	"sync"
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
//   - a "net" import under internal/ or cmd/, test files included: every
//     DNS exchange crosses the codec over dns.MemNet, the one wire (bench/
//     dials the HTTP clients of its served workload);
//   - a crypto/sha256 import in a non-test file outside internal/serve and
//     bench/: the served ETag is the product's one hash (the CT log is a
//     list, not a Merkle tree);
//   - in non-test files under internal/, cmd/ and examples/: a call of a
//     materialising journal reader (by name, qualified or not: the names
//     are unique in the module), a retired lookup, or a top-level
//     declaration named reference*/Reference* — the oracles are test code.
func TestSourceHygiene(t *testing.T) {
	fset, files := sourceTree(t)
	products := 0
	for _, f := range files {
		for _, imp := range f.ast.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			if p == "hash/crc32" && !strings.HasPrefix(f.path, "internal/frame/") {
				t.Errorf("%s: imports hash/crc32; frame with internal/frame", fset.Position(imp.Pos()))
			}
			if p == "net" && (strings.HasPrefix(f.path, "internal/") || strings.HasPrefix(f.path, "cmd/")) {
				t.Errorf("%s: imports net; DNS exchanges cross the codec over dns.MemNet, the one wire", fset.Position(imp.Pos()))
			}
			if p == "crypto/sha256" && !f.test && !strings.HasPrefix(f.path, "internal/serve/") && !strings.HasPrefix(f.path, "bench/") {
				t.Errorf("%s: imports crypto/sha256; the served ETag (internal/serve) is the product's one hash", fset.Position(imp.Pos()))
			}
		}
		if f.test || strings.HasPrefix(f.path, "bench/") {
			continue
		}
		products++
		file := fset.File(f.ast.Pos())
		for _, loc := range retiredLookups.FindAllIndex(f.src, -1) {
			t.Errorf("%s: %s, a retired lookup; use Snapshot.Lookup and the analyzer's per-config ASN memo", fset.Position(file.Pos(loc[0])), f.src[loc[0]:loc[1]])
		}
		for _, decl := range f.ast.Decls {
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
		ast.Inspect(f.ast, func(n ast.Node) bool {
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
	}
	if products < 50 {
		t.Fatalf("parsed %d product files: the walk no longer sees the tree", products)
	}
}

// goFile is one parsed Go file of the tree. Non-test files are parsed
// whole, for the hygiene rules and the reachability pass; test files only
// to their imports.
type goFile struct {
	path string // slash-separated, relative to the repository root
	src  []byte
	test bool
	ast  *ast.File
}

var parsedTree struct {
	once  sync.Once
	fset  *token.FileSet
	files []goFile
	err   error
}

// sourceTree parses every Go file under internal/, cmd/, examples/ and
// bench/ once per test binary, for every source rule that reads the tree.
func sourceTree(t *testing.T) (*token.FileSet, []goFile) {
	tr := &parsedTree
	tr.once.Do(func() {
		tr.fset = token.NewFileSet()
		for _, root := range []string{"internal", "cmd", "examples", "bench"} {
			tr.err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
				if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
					return err
				}
				src, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				test := strings.HasSuffix(path, "_test.go")
				mode := parser.SkipObjectResolution
				if test {
					mode = parser.ImportsOnly
				}
				f, err := parser.ParseFile(tr.fset, path, src, mode)
				if err != nil {
					return err
				}
				tr.files = append(tr.files, goFile{filepath.ToSlash(path), src, test, f})
				return nil
			})
			if tr.err != nil {
				return
			}
		}
	})
	if tr.err != nil {
		t.Fatal(tr.err)
	}
	return tr.fset, tr.files
}
