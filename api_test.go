package xlnand

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"slices"
	"strconv"
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

// testOnlyFile allowlists the internal exports that only tests name,
// one "<import path> <Name> — <reason>" line each.
const testOnlyFile = "testdata/test_only.txt"

// TestNoTestOnlyExports keeps production code that only tests reach from
// creeping back: it lists every exported top-level func, type, const and
// var of internal/... that no non-test file of the tree names — files
// in cmd/ and bench/ count as users — and requires that list to equal
// the allowlist, so a new test-only export and a stale allowlist entry
// both fail. Methods and fields are out of scope.
func TestNoTestOnlyExports(t *testing.T) {
	checkAllowlist(t, testOnlyFile, testOnlyExports(t),
		"is exported but only tests name it: delete it, unexport it")
}

// checkAllowlist requires the entries a check found in the tree to
// equal the allowlist in file, one "<entry> — <reason>" line each; an
// entry missing from the file and a stale line both fail. problem says
// what is wrong with an unlisted entry and how to fix it.
func checkAllowlist(t *testing.T, file string, got []string, problem string) {
	t.Helper()
	raw, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var want []string
	for _, l := range strings.Split(strings.TrimSuffix(string(raw), "\n"), "\n") {
		entry, reason, ok := strings.Cut(l, " — ")
		if !ok || strings.TrimSpace(reason) == "" {
			t.Errorf("%s: %q gives no reason", file, l)
		}
		want = append(want, entry)
	}
	for _, e := range got {
		if !slices.Contains(want, e) {
			t.Errorf("%s %s, or allowlist it in %s with a reason", e, problem, file)
		}
	}
	for _, e := range want {
		if !slices.Contains(got, e) {
			t.Errorf("%s: %s no longer fails the check; drop its line", file, e)
		}
	}
}

// testOnlyExports returns the sorted "<import path> <Name>" entries of
// internal exports that no non-test file names.
func testOnlyExports(t *testing.T) []string {
	t.Helper()
	declared := map[string]bool{}
	used := map[string]bool{}
	forNonTestFiles(t, func(pkg string, f *ast.File) {
		if strings.HasPrefix(pkg, "xlnand/internal/") {
			for _, name := range topLevelExports(f) {
				declared[pkg+" "+name] = true
			}
		}
		for _, u := range namesUsed(f, pkg) {
			used[u] = true
		}
	})
	var out []string
	for e := range declared {
		if !used[e] {
			out = append(out, e)
		}
	}
	slices.Sort(out)
	return out
}

// forNonTestFiles parses every non-test Go file of the tree, bench/ and
// cmd/ included, testdata and dot directories skipped, and calls fn
// with the file and its import path.
func forNonTestFiles(t *testing.T, fn func(pkg string, f *ast.File)) {
	t.Helper()
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if name := d.Name(); p != "." && (name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := path.Join("xlnand", filepath.ToSlash(filepath.Dir(p)))
		fn(pkg, f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// topLevelExports lists a file's exported package-level funcs, types,
// consts and vars (no methods).
func topLevelExports(f *ast.File) []string {
	var names []string
	for _, name := range exportedNames(f) {
		if !strings.Contains(name, ".") {
			names = append(names, name)
		}
	}
	return names
}

// namesUsed lists, as "<import path> <Name>", every package-level name a
// file refers to: qualified identifiers through its imports, and bare
// identifiers of its own package. Declared names, selected members and
// struct field names are not references.
func namesUsed(f *ast.File, pkg string) []string {
	imports := map[string]string{}
	for _, im := range f.Imports {
		p, _ := strconv.Unquote(im.Path.Value)
		name := path.Base(p)
		if im.Name != nil {
			name = im.Name.Name
		}
		imports[name] = p
	}
	skip := map[*ast.Ident]bool{}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.SelectorExpr:
			skip[x.Sel] = true
			if id, ok := x.X.(*ast.Ident); ok && imports[id.Name] != "" {
				skip[id] = true
				out = append(out, imports[id.Name]+" "+x.Sel.Name)
			}
		case *ast.FuncDecl:
			skip[x.Name] = true
		case *ast.TypeSpec:
			skip[x.Name] = true
		case *ast.ValueSpec:
			for _, id := range x.Names {
				skip[id] = true
			}
		case *ast.Field:
			for _, id := range x.Names {
				skip[id] = true
			}
		case *ast.Ident:
			if !skip[x] {
				out = append(out, pkg+" "+x.Name)
			}
		}
		return true
	})
	return out
}

// writeOnlyFile allowlists the struct fields that non-test code assigns
// but never reads, one "<import path> <Type>.<Field> — <reason>" line
// each.
const writeOnlyFile = "testdata/write_only.txt"

// TestNoWriteOnlyFields keeps state that nothing reads from creeping
// back. Every field of a struct type declared in a non-test file of the
// root package or internal/ must be read by non-test code: in its own
// package if the field is unexported, anywhere in the tree (cmd/ and
// bench/ included) if it is exported. Without type information a read is
// matched by name: a selector x.Field that is not the left side of an
// assignment, op= or ++/--. Fields with a json tag are exempt, since
// encoding/json reads them. The fields that fail must equal the
// allowlist.
func TestNoWriteOnlyFields(t *testing.T) {
	checkAllowlist(t, writeOnlyFile, writeOnlyFields(t),
		"is assigned but never read: delete it")
}

// writeOnlyFields returns the sorted "<import path> <Type>.<Field>"
// entries of struct fields no non-test selector reads.
func writeOnlyFields(t *testing.T) []string {
	t.Helper()
	type field struct{ pkg, typ, name string }
	var declared []field
	readIn := map[string]bool{} // "<import path> <name>"
	readAnywhere := map[string]bool{}
	forNonTestFiles(t, func(pkg string, f *ast.File) {
		if pkg == "xlnand" || strings.HasPrefix(pkg, "xlnand/internal/") {
			for _, spec := range typeSpecs(f) {
				ast.Inspect(spec.Type, func(n ast.Node) bool {
					st, ok := n.(*ast.StructType)
					if !ok {
						return true
					}
					for _, fl := range st.Fields.List {
						if fl.Tag != nil && strings.Contains(fl.Tag.Value, `json:"`) {
							continue
						}
						for _, id := range fl.Names {
							declared = append(declared, field{pkg, spec.Name.Name, id.Name})
						}
					}
					return true
				})
			}
		}
		for _, name := range fieldsRead(f) {
			readIn[pkg+" "+name] = true
			readAnywhere[name] = true
		}
	})
	var out []string
	for _, f := range declared {
		read := readIn[f.pkg+" "+f.name]
		if ast.IsExported(f.name) {
			read = readAnywhere[f.name]
		}
		if !read {
			out = append(out, f.pkg+" "+f.typ+"."+f.name)
		}
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// typeSpecs lists every type declaration of a file, local ones included.
func typeSpecs(f *ast.File) []*ast.TypeSpec {
	var specs []*ast.TypeSpec
	ast.Inspect(f, func(n ast.Node) bool {
		if s, ok := n.(*ast.TypeSpec); ok {
			specs = append(specs, s)
		}
		return true
	})
	return specs
}

// fieldsRead lists the selected names of a file's selectors that are
// not written: the left side of an assignment, op= or ++/-- is a write.
func fieldsRead(f *ast.File) []string {
	written := map[*ast.SelectorExpr]bool{}
	var out []string
	ast.Inspect(f, func(n ast.Node) bool {
		switch x := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range x.Lhs {
				if sel, ok := lhs.(*ast.SelectorExpr); ok {
					written[sel] = true
				}
			}
		case *ast.IncDecStmt:
			if sel, ok := x.X.(*ast.SelectorExpr); ok {
				written[sel] = true
			}
		case *ast.SelectorExpr:
			if !written[x] {
				out = append(out, x.Sel.Name)
			}
		}
		return true
	})
	return out
}
