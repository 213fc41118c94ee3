package cfdclean

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// uncalledAllowed names the package-level functions under internal/ that no
// non-test code names but that stay, each with its reason.
var uncalledAllowed = map[string]string{
	"cfd.WitnessTuple":    "the certificate the Satisfiable tests check",
	"strdist.Levenshtein": "the reference the Damerau–Levenshtein kernel tests compare with",
	"metrics.Accuracy":    "ground-truth inaccuracy, kept for ROADMAP item 6",
}

// TestInternalFuncsHaveCallers keeps the engine packages to what the program
// uses: every package-level function in a non-test file under internal/ must
// be named by non-test Go code of the repository (bench/, cmd/ and examples/
// count) outside its own declaration. A name counts inside its package as a
// bare identifier and outside it as a selector on the package's import; a
// method or field of the same name does not count.
func TestInternalFuncsHaveCallers(t *testing.T) {
	type decl struct{ dir, pkg, name string }
	var decls []decl
	named := map[string]bool{} // "dir.name" for bare and qualified uses

	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		imports := map[string]string{} // local name → directory under the module root
		for _, imp := range f.Imports {
			p, _ := strconv.Unquote(imp.Path.Value)
			rel, ok := strings.CutPrefix(p, "cfdclean/")
			if !ok {
				continue
			}
			name := rel[strings.LastIndex(rel, "/")+1:]
			if imp.Name != nil {
				name = imp.Name.Name
			}
			imports[name] = rel
		}
		for _, dl := range f.Decls {
			self := "" // a function's recursive calls do not count
			if fn, ok := dl.(*ast.FuncDecl); ok && fn.Recv == nil {
				self = fn.Name.Name
				if strings.HasPrefix(dir, "internal/") && self != "init" {
					decls = append(decls, decl{dir, f.Name.Name, self})
				}
			}
			// Names being declared — functions, methods, fields, parameters —
			// and struct literal keys are not uses.
			declared := map[*ast.Ident]bool{}
			var visit func(ast.Node) bool
			visit = func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.FuncDecl:
					declared[n.Name] = true
				case *ast.Field:
					for _, id := range n.Names {
						declared[id] = true
					}
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						declared[id] = true
					}
				case *ast.SelectorExpr:
					if x, ok := n.X.(*ast.Ident); ok {
						if rel, ok := imports[x.Name]; ok {
							named[rel+"."+n.Sel.Name] = true
						}
					}
					ast.Inspect(n.X, visit)
					return false
				case *ast.Ident:
					if !declared[n] && n.Name != self {
						named[dir+"."+n.Name] = true
					}
				}
				return true
			}
			ast.Inspect(dl, visit)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	var uncalled []string
	for _, d := range decls {
		key := d.pkg + "." + d.name
		_, allowed := uncalledAllowed[key]
		switch {
		case named[d.dir+"."+d.name] && allowed:
			t.Errorf("%s has a caller now; drop it from uncalledAllowed", key)
		case !named[d.dir+"."+d.name] && !allowed:
			uncalled = append(uncalled, key)
		}
	}
	sort.Strings(uncalled)
	if len(uncalled) > 0 {
		t.Errorf("package-level functions under internal/ that no non-test code names "+
			"(delete them, move them to a _test.go file, or allow them with a reason): %s",
			strings.Join(uncalled, ", "))
	}
}
