package whereru

import (
	"bytes"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
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

// TestSourceHygiene parses every Go file under internal/, cmd/ and bench/
// and fails on what the tree has ruled out:
//   - a hash/crc32 import outside internal/frame, test files included:
//     length+CRC32C framing lives in one place;
//   - a "net" import under internal/ or cmd/, test files included: every
//     DNS exchange crosses the codec over dns.MemNet, the one wire (bench/
//     dials the HTTP clients of its served workload);
//   - a crypto/sha256 import in a non-test file outside internal/serve and
//     bench/: the served ETag is the product's one hash (the CT log is a
//     list, not a Merkle tree);
//   - in non-test files under internal/ and cmd/: a call of a
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

// skipGuards are the classes a skip in testdata/skips.txt may have
// (its header says what each means), each with what the condition of
// the if around the call must mention; a platform skip tests whatever
// the platform lacks.
var skipGuards = map[string]string{
	"-short":           "testing.Short()",
	"heap measurement": "testing.Short()",
	"race-only":        "race",
	"platform":         "",
}

// TestSkipLedger holds every Skip, Skipf and SkipNow call outside bench/
// to testdata/skips.txt: each is listed, under the test function that
// makes it, with a class (skipGuards) its guard bears out, and each line
// still lists a call. A test whose input might not show what it checks
// picks an input that does, or fails: luck in the data is no reason to
// skip.
func TestSkipLedger(t *testing.T) {
	fset, files := sourceTree(t)
	files = files[:len(files):len(files)] // the tree's slice is shared: append to a copy
	root, err := filepath.Glob("*_test.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range root {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, goFile{path: p, src: src, test: true})
	}
	type site struct {
		pos  token.Position
		fn   string
		cond string // the innermost enclosing if's condition
	}
	sites := map[string][]site{} // path:Func → its skips, in source order
	for _, f := range files {
		if strings.HasPrefix(f.path, "bench/") || !bytes.Contains(f.src, []byte(".Skip")) {
			continue
		}
		af, err := parser.ParseFile(fset, f.path, f.src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		file := fset.File(af.Pos())
		for _, d := range af.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Body == nil {
				continue
			}
			key := f.path + ":" + fn.Name.Name
			var stack []ast.Node
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if sel, ok := call.Fun.(*ast.SelectorExpr); !ok || (sel.Sel.Name != "Skip" && sel.Sel.Name != "Skipf" && sel.Sel.Name != "SkipNow") {
					return true
				}
				s := site{pos: fset.Position(call.Pos()), fn: fn.Name.Name}
				for i := len(stack) - 1; i >= 0; i-- {
					if is, ok := stack[i].(*ast.IfStmt); ok {
						s.cond = string(f.src[file.Offset(is.Cond.Pos()):file.Offset(is.Cond.End())])
						break
					}
				}
				sites[key] = append(sites[key], s)
				return true
			})
		}
	}
	if len(sites) == 0 {
		t.Fatal("found no skip: the walk no longer sees the tree")
	}

	const ledger = "testdata/skips.txt"
	lines, err := readAllowlist(ledger)
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]int{} // path:Func → lines read so far
	for _, l := range lines {
		guard, ok := skipGuards[l.class]
		n := listed[l.key]
		listed[l.key]++
		switch {
		case !ok:
			t.Errorf("%s:%d: %s has class %q, not one of -short, race-only, platform, heap measurement", ledger, l.line, l.key, l.class)
		case n >= len(sites[l.key]):
			t.Errorf("%s:%d: %s makes %d skips, fewer than its lines here: drop the line", ledger, l.line, l.key, len(sites[l.key]))
		case !strings.Contains(sites[l.key][n].cond, guard):
			t.Errorf("%s: a %s skip under a condition that does not test %s: %q", sites[l.key][n].pos, l.class, guard, sites[l.key][n].cond)
		}
	}
	keys := make([]string, 0, len(sites))
	for key := range sites {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		ss := sites[key]
		for _, s := range ss[min(listed[key], len(ss)):] {
			t.Errorf("%s: %s skips, and %s does not list it: pick an input that shows what the test checks, or fail; skip only with a class", s.pos, s.fn, ledger)
		}
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

// sourceTree parses every Go file under internal/, cmd/ and bench/ once
// per test binary, for every source rule that reads the tree.
func sourceTree(t *testing.T) (*token.FileSet, []goFile) {
	tr := &parsedTree
	tr.once.Do(func() {
		tr.fset = token.NewFileSet()
		for _, root := range []string{"internal", "cmd", "bench"} {
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
