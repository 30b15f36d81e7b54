package whereru

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
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

// TestSourceHygiene parses every non-test file under internal/ and cmd/
// and fails on a call the tree has ruled out. By name, qualified or not:
// the names are unique in the module.
func TestSourceHygiene(t *testing.T) {
	fset := token.NewFileSet()
	files := 0
	for _, root := range []string{"internal", "cmd"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			files++
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
