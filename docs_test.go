package whereru

import (
	"bytes"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"
)

var (
	// citedFunc is a test, benchmark, fuzz target or example named in
	// prose or in a -run pattern.
	citedFunc = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz|Example)[A-Z_]\w*`)
	// citedFile is a Go file path, with an optional line or line range.
	citedFile = regexp.MustCompile(`[\w./-]*\w\.go\b(?::(\d+)(?:-(\d+))?)?`)
	// definedFunc is a top-level test, benchmark, fuzz target or example.
	definedFunc = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz|Example)\w*)\(`)
)

// TestDocReferences holds the docs to the tree: every test, benchmark,
// fuzz target or example they name is defined — a -run pattern may name a
// prefix, so a cited name must begin some defined one — every Go file they
// cite exists (internal/ may be left off, as the docs write dns/edns.go; a
// bare file name must exist somewhere in the tree), and every file.go:N or
// file.go:N-M is inside its file.
func TestDocReferences(t *testing.T) {
	_, files := sourceTree(t)
	root, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	var defined []string
	lines := map[string]int{}       // path → line count
	byBase := map[string][]string{} // base name → paths
	add := func(p string, src []byte) {
		lines[p] = bytes.Count(src, []byte("\n"))
		byBase[path.Base(p)] = append(byBase[path.Base(p)], p)
		for _, m := range definedFunc.FindAllSubmatch(src, -1) {
			defined = append(defined, string(m[1]))
		}
	}
	for _, f := range files {
		add(f.path, f.src)
	}
	for _, p := range root {
		src, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		add(p, src)
	}

	for _, doc := range []string{"DESIGN.md", "README.md", "bench/README.md", ".claude/skills/verify/SKILL.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for n, line := range strings.Split(string(text), "\n") {
			at := doc + ":" + strconv.Itoa(n+1)
			for _, name := range citedFunc.FindAllString(line, -1) {
				if !beginsAny(defined, name) {
					t.Errorf("%s: cites %s, which no test file defines", at, name)
				}
			}
			for _, m := range citedFile.FindAllStringSubmatch(line, -1) {
				file, _, _ := strings.Cut(m[0], ":")
				var candidates []string
				if strings.Contains(file, "/") {
					for _, p := range []string{file, "internal/" + file, path.Join(path.Dir(doc), file)} {
						if _, ok := lines[p]; ok {
							candidates = append(candidates, p)
						}
					}
				} else {
					candidates = byBase[file]
				}
				if len(candidates) == 0 {
					t.Errorf("%s: cites %s, which does not exist", at, file)
					continue
				}
				last := m[1]
				if m[2] != "" {
					last = m[2]
				}
				if want, _ := strconv.Atoi(last); want > 0 && !anyLongEnough(lines, candidates, want) {
					t.Errorf("%s: cites %s, past the end of %s", at, m[0], strings.Join(candidates, ", "))
				}
			}
		}
	}
}

func beginsAny(names []string, prefix string) bool {
	for _, n := range names {
		if strings.HasPrefix(n, prefix) {
			return true
		}
	}
	return false
}

func anyLongEnough(lines map[string]int, paths []string, line int) bool {
	for _, p := range paths {
		if lines[p] >= line {
			return true
		}
	}
	return false
}

var (
	// fuzzTarget is a top-level fuzz target.
	fuzzTarget = regexp.MustCompile(`(?m)^func (Fuzz\w*)\(\w+ \*testing\.F\)`)
	// fuzzSmokeLine is one fuzz-smoke command in the CI workflow.
	fuzzSmokeLine = regexp.MustCompile(`(?m)^\s*go test \./(\S+) -run=\^\$ -fuzz=(\w+)\b`)
)

// TestFuzzSmokeListsEveryTarget holds CI's fuzz-smoke job to the tree:
// every fuzz target under internal/ has exactly one `go test ./<pkg>
// -run=^$ -fuzz=<Name>` line in .github/workflows/ci.yml, and every such
// line names a target of that package that its -fuzz pattern alone
// selects (go test refuses a pattern matching two).
func TestFuzzSmokeListsEveryTarget(t *testing.T) {
	_, files := sourceTree(t)
	targets := map[string][]string{} // package dir → fuzz targets
	for _, f := range files {
		if f.test && strings.HasPrefix(f.path, "internal/") {
			for _, m := range fuzzTarget.FindAllSubmatch(f.src, -1) {
				targets[path.Dir(f.path)] = append(targets[path.Dir(f.path)], string(m[1]))
			}
		}
	}
	ci, err := os.ReadFile(".github/workflows/ci.yml")
	if err != nil {
		t.Fatal(err)
	}
	listed := map[string]int{} // "pkg.Name" → CI lines
	for _, m := range fuzzSmokeLine.FindAllStringSubmatch(string(ci), -1) {
		pkg, name := m[1], m[2]
		listed[pkg+"."+name]++
		pattern := regexp.MustCompile(name)
		matched := 0
		for _, target := range targets[pkg] {
			if pattern.MatchString(target) {
				matched++
			}
		}
		if !slices.Contains(targets[pkg], name) || matched != 1 {
			t.Errorf("ci.yml: fuzz smoke runs -fuzz=%s in ./%s, which matches %d of its fuzz targets %v; want exactly that one", name, pkg, matched, targets[pkg])
		}
	}
	n := 0
	for pkg, names := range targets {
		for _, name := range names {
			n++
			if c := listed[pkg+"."+name]; c != 1 {
				t.Errorf("%s.%s: %d fuzz-smoke lines in ci.yml, want 1", pkg, name, c)
			}
		}
	}
	if n == 0 {
		t.Fatal("found no fuzz targets under internal/")
	}
}
