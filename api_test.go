package xlnand

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// apiLedgerFile records every exported declaration of the module's
// library packages, one "<import path> <name>" line each (methods as
// Type.Method), sorted.
const apiLedgerFile = "testdata/api.txt"

// TestAPILedger pins the exported surface of every package outside
// cmd/ and bench/: functions, methods on exported types, types,
// constants and variables. Growing or shrinking the API means
// updating the ledger, so the change shows in the diff. On mismatch the
// test prints the difference and the content the ledger should have.
func TestAPILedger(t *testing.T) {
	got := apiLedger(t)
	raw, err := os.ReadFile(apiLedgerFile)
	if err != nil {
		t.Fatalf("%v\n\n%s should contain:\n%s", err, apiLedgerFile, got)
	}
	want := string(raw)
	if got == want {
		return
	}
	wantLines := strings.Split(strings.TrimSuffix(want, "\n"), "\n")
	gotLines := strings.Split(strings.TrimSuffix(got, "\n"), "\n")
	var diff strings.Builder
	for _, l := range wantLines {
		if !slices.Contains(gotLines, l) {
			diff.WriteString("- " + l + "\n")
		}
	}
	for _, l := range gotLines {
		if !slices.Contains(wantLines, l) {
			diff.WriteString("+ " + l + "\n")
		}
	}
	t.Fatalf("exported API differs from %s (- ledger, + tree):\n%s\n%s should contain:\n%s",
		apiLedgerFile, diff.String(), apiLedgerFile, got)
}

// apiLedger renders the ledger of the tree rooted at the module root.
func apiLedger(t *testing.T) string {
	t.Helper()
	var lines []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			switch name := d.Name(); {
			case path == ".":
				return nil
			case path == "cmd", path == "bench", name == "testdata",
				strings.HasPrefix(name, "."):
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := "xlnand"
		if dir := filepath.ToSlash(filepath.Dir(path)); dir != "." {
			pkg += "/" + dir
		}
		for _, name := range exportedNames(f) {
			lines = append(lines, pkg+" "+name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	slices.Sort(lines)
	return strings.Join(slices.Compact(lines), "\n") + "\n"
}

// exportedNames lists a file's exported top-level declarations.
func exportedNames(f *ast.File) []string {
	var names []string
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			if d.Recv == nil {
				names = append(names, d.Name.Name)
				continue
			}
			if recv := receiverType(d.Recv.List[0].Type); ast.IsExported(recv) {
				names = append(names, recv+"."+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() {
						names = append(names, s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() {
							names = append(names, n.Name)
						}
					}
				}
			}
		}
	}
	return names
}

// receiverType returns the base type name of a method receiver,
// stripping the pointer and any type parameters.
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return ""
		}
	}
}
