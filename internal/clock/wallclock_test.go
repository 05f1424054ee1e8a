package clock

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

var updateGolden = flag.Bool("update", false, "rewrite testdata/wallclock.golden from the current tree")

// wallClockFuncs are the package time functions that read or wait on the
// wall clock instead of a Clock.
var wallClockFuncs = map[string]bool{
	"Now": true, "Since": true, "Sleep": true, "After": true,
	"AfterFunc": true, "NewTimer": true, "NewTicker": true, "Tick": true,
}

// TestWallClockInventory lists, per non-test Go file under internal/ outside
// this package, how many times it uses a wall-clock function of package time
// (a call or a function value), and compares the list with
// testdata/wallclock.golden. Code driven by a Clock can be replayed on a
// fake one; every row here cannot. A change that moves a row updates the
// golden (run with -update) and says why.
func TestWallClockInventory(t *testing.T) {
	counts := make(map[string]int)
	fset := token.NewFileSet()
	err := filepath.WalkDir("..", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel("..", path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel == "clock" || d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(rel, ".go") || strings.HasSuffix(rel, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if n := countWallClock(f); n > 0 {
			counts[filepath.ToSlash(rel)] = n
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	files := make([]string, 0, len(counts))
	for f := range counts {
		files = append(files, f)
	}
	sort.Strings(files)
	var b strings.Builder
	for _, f := range files {
		fmt.Fprintf(&b, "%s: %d\n", f, counts[f])
	}
	got := b.String()

	path := filepath.Join("testdata", "wallclock.golden")
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("wall-clock inventory changed; run with -update if intended\n got:\n%s\nwant:\n%s", got, want)
	}
}

// countWallClock counts references to wallClockFuncs through f's import of
// package time, under whatever name the file imports it.
func countWallClock(f *ast.File) int {
	name := ""
	for _, imp := range f.Imports {
		if p, _ := strconv.Unquote(imp.Path.Value); p == "time" {
			name = "time"
			if imp.Name != nil {
				name = imp.Name.Name
			}
		}
	}
	if name == "" || name == "_" {
		return 0
	}
	n := 0
	ast.Inspect(f, func(node ast.Node) bool {
		if sel, ok := node.(*ast.SelectorExpr); ok {
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == name && wallClockFuncs[sel.Sel.Name] {
				n++
			}
		}
		return true
	})
	return n
}
