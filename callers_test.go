package cfdclean

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// uncalledAllowed names the declarations under internal/ that no non-test
// code names, or reads, but that stay, each with its reason: a
// package-level function, var or const as "pkg.Name", a method or a
// struct field as "pkg.Type.Name".
var uncalledAllowed = map[string]string{
	"cfd.WitnessTuple":     "the certificate the Satisfiable tests check",
	"strdist.Levenshtein":  "the reference the Damerau–Levenshtein kernel tests compare with",
	"metrics.Accuracy":     "ground-truth inaccuracy, kept for ROADMAP item 6",
	"cfd.Detector.Recount": "the audit of the counted LHS indexes that ROADMAP item 10(d) will call",
	"relation.KeyMap.Len":  "the key count the cfd compile tests hold a key map to; a test file cannot export it to another package",

	"server.persister.synced":      "the fsync watermark TestFsyncBeforeAck holds every acknowledgement to",
	"repair.workCounts.visits":     "PICKNEXT's visits, one of the per-resolution counts TestBatchWorkGrowth bounds",
	"repair.workCounts.findVReads": "FINDV's tally reads, one of the per-resolution counts TestBatchWorkGrowth bounds",
	"repair.workCounts.walked":     "the partner search's walk, which TestBatchWorkGrowth logs beside the two it bounds",
	"ship.Replica.applied":         "the batches a replica applied, which the fault battery checks",
	"ship.Replica.skipped":         "the duplicate batches a replica skipped, which the fault battery checks",
	"ship.Replica.installs":        "the snapshot installs of a replica, which the fault battery checks",
	"ship.ShipStats.Dropped":       "the frames a shipper dropped under backoff, which the fault battery checks",
}

// moduleLoader type-checks the repository's non-test Go files, package by
// package, from source: an import of cfdclean/… is the directory under the
// repository root (bench/ is the module cfdclean/bench beside it), any
// other import comes from the standard library's export data. One Info
// records every package's uses.
type moduleLoader struct {
	fset  *token.FileSet
	std   types.Importer
	info  *types.Info
	pkgs  map[string]*types.Package // by import path; nil while being checked
	files map[string][]*ast.File
}

func (l *moduleLoader) Import(path string) (*types.Package, error) {
	if path != "cfdclean" && !strings.HasPrefix(path, "cfdclean/") {
		return l.std.Import(path)
	}
	return l.load(path)
}

func (l *moduleLoader) load(path string) (*types.Package, error) {
	if p, seen := l.pkgs[path]; seen {
		if p == nil {
			return nil, &types.Error{Msg: "import cycle through " + path}
		}
		return p, nil
	}
	dir := "."
	if rel, ok := strings.CutPrefix(path, "cfdclean/"); ok {
		dir = filepath.FromSlash(rel)
	}
	bp, err := build.ImportDir(dir, 0)
	if err != nil {
		return nil, err
	}
	var files []*ast.File
	for _, name := range bp.GoFiles {
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	l.pkgs[path] = nil
	pkg, err := (&types.Config{Importer: l}).Check(path, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[path], l.files[path] = pkg, files
	return pkg, nil
}

// TestInternalFuncsHaveCallers keeps the engine packages to what the program
// uses: every package-level function, var and const and every method
// declared in a non-test file under internal/ must be named by non-test Go
// code of the repository (bench/, cmd/ and examples/ count) outside its own
// declaration, and every field of a struct type declared there must be
// read by it (fieldReads says what counts as a read). Names are resolved
// by the type checker, so a method counts only where a value of its own
// type (or one embedding it) selects it. Two kinds of method are exempt:
// one that lets its type satisfy a named interface of the program or the
// standard library, since such calls go through the interface; and an
// exported method of the library's surface — a type api.go aliases, or a
// type such a method hands out or such a type's exported field holds,
// transitively. The fields of surface types are exempt too, as are those
// encoding/json reads by their json tag.
func TestInternalFuncsHaveCallers(t *testing.T) {
	fset := token.NewFileSet()
	l := &moduleLoader{
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil),
		info: &types.Info{
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Types:      map[ast.Expr]types.TypeAndValue{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		pkgs:  map[string]*types.Package{},
		files: map[string][]*ast.File{},
	}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		imp := "cfdclean"
		if path != "." {
			imp += "/" + filepath.ToSlash(path)
		}
		_, err = l.load(imp)
		if _, none := err.(*build.NoGoError); none {
			return nil
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}

	// uses holds, for every object named anywhere, where it was named.
	uses := map[types.Object][]token.Pos{}
	for id, obj := range l.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			obj = fn.Origin()
		}
		uses[obj] = append(uses[obj], id.Pos())
	}

	exempt := implicitMethods(l)
	surface, surfaceTypes := surfaceMethods(l)
	for obj := range surface {
		exempt[obj] = true
	}
	read := fieldReads(l)

	var uncalled, unread []string
	check := func(key string, obj types.Object, decl ast.Node) {
		used := false
		for _, p := range uses[obj] {
			used = used || p < decl.Pos() || p >= decl.End()
		}
		_, allowed := uncalledAllowed[key]
		switch {
		case used && allowed:
			t.Errorf("%s has a caller now; drop it from uncalledAllowed", key)
		case !used && !allowed:
			uncalled = append(uncalled, key)
		}
	}
	checkField := func(key string, used bool) {
		_, allowed := uncalledAllowed[key]
		switch {
		case used && allowed:
			t.Errorf("%s has a reader now; drop it from uncalledAllowed", key)
		case !used && !allowed:
			unread = append(unread, key)
		}
	}
	for path, files := range l.files {
		if !strings.HasPrefix(path, "cfdclean/internal/") {
			continue
		}
		for _, f := range files {
			for _, dl := range f.Decls {
				if gd, ok := dl.(*ast.GenDecl); ok && gd.Tok == token.TYPE {
					for _, spec := range gd.Specs {
						tn := l.info.Defs[spec.(*ast.TypeSpec).Name].(*types.TypeName)
						named, ok := tn.Type().(*types.Named)
						if !ok || surfaceTypes[named] {
							continue
						}
						st, ok := named.Underlying().(*types.Struct)
						for i := 0; ok && i < st.NumFields(); i++ {
							// encoding/json reads a field with a json
							// key of its own
							json, _ := reflect.StructTag(st.Tag(i)).Lookup("json")
							if fld := st.Field(i); fld.Name() != "_" {
								checkField(f.Name.Name+"."+tn.Name()+"."+fld.Name(), read[fld] || json != "" && json != "-")
							}
						}
					}
				}
				switch dl := dl.(type) {
				case *ast.FuncDecl:
					obj := l.info.Defs[dl.Name].(*types.Func)
					recv := obj.Type().(*types.Signature).Recv()
					switch {
					case recv == nil && dl.Name.Name != "init":
						check(f.Name.Name+"."+dl.Name.Name, obj, dl)
					case recv != nil && !exempt[obj]:
						check(f.Name.Name+"."+recvName(recv)+"."+dl.Name.Name, obj, dl)
					}
				case *ast.GenDecl:
					if dl.Tok != token.VAR && dl.Tok != token.CONST {
						continue
					}
					for _, spec := range dl.Specs {
						for _, id := range spec.(*ast.ValueSpec).Names {
							if id.Name != "_" {
								check(f.Name.Name+"."+id.Name, l.info.Defs[id], spec)
							}
						}
					}
				}
			}
		}
	}
	sort.Strings(uncalled)
	if len(uncalled) > 0 {
		t.Errorf("declarations under internal/ that no non-test code names "+
			"(delete them, move them to a _test.go file, or allow them with a reason): %s",
			strings.Join(uncalled, ", "))
	}
	sort.Strings(unread)
	if len(unread) > 0 {
		t.Errorf("struct fields under internal/ that no non-test code reads "+
			"(delete them, or allow them with a reason): %s",
			strings.Join(unread, ", "))
	}
}

// fieldReads returns the struct fields the loaded non-test code reads. A
// field named anywhere but as the target of an assignment or an
// increment, or as the key of a composite literal, is read; so is an
// embedded field a selector passes through to a promoted field or method,
// and every field of a struct type compared with == or != or used as a
// map key, since the comparison reads them all.
func fieldReads(l *moduleLoader) map[*types.Var]bool {
	written := map[*ast.Ident]bool{}
	read := map[*types.Var]bool{}
	var readAll func(typ types.Type)
	readAll = func(typ types.Type) {
		st, ok := typ.Underlying().(*types.Struct)
		for i := 0; ok && i < st.NumFields(); i++ {
			if !read[st.Field(i)] {
				read[st.Field(i)] = true
				readAll(st.Field(i).Type())
			}
		}
	}
	target := func(e ast.Expr) {
		for {
			switch x := e.(type) {
			case *ast.ParenExpr:
				e = x.X
				continue
			case *ast.IndexExpr:
				e = x.X
				continue
			case *ast.SelectorExpr:
				written[x.Sel] = true
			}
			return
		}
	}
	for _, files := range l.files {
		for _, f := range files {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, e := range n.Lhs {
						target(e)
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.CompositeLit:
					for _, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								written[id] = true
							}
						}
					}
				case *ast.MapType:
					readAll(l.info.Types[n.Key].Type)
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						readAll(l.info.Types[n.X].Type)
					}
				}
				return true
			})
		}
	}
	for id, obj := range l.info.Uses {
		if v, ok := obj.(*types.Var); ok && v.IsField() && !written[id] {
			read[v.Origin()] = true
		}
	}
	for _, sel := range l.info.Selections {
		typ := sel.Recv()
		for _, i := range sel.Index()[:len(sel.Index())-1] {
			if p, ok := typ.Underlying().(*types.Pointer); ok {
				typ = p.Elem()
			}
			fld := typ.Underlying().(*types.Struct).Field(i)
			read[fld.Origin()] = true
			typ = fld.Type()
		}
	}
	return read
}

// recvName is the name of a method's receiver type, pointer or not.
func recvName(recv *types.Var) string {
	typ := recv.Type()
	if p, ok := typ.(*types.Pointer); ok {
		typ = p.Elem()
	}
	return typ.(*types.Named).Obj().Name()
}

// implicitMethods returns the methods declared under internal/ through
// which their type satisfies a named interface of any loaded or imported
// package (the universe's error included).
func implicitMethods(l *moduleLoader) map[types.Object]bool {
	byName := map[string][]*types.Interface{} // interfaces by each method they hold
	addScope := func(s *types.Scope) {
		for _, name := range s.Names() {
			tn, ok := s.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				for i := 0; i < it.NumMethods(); i++ {
					byName[it.Method(i).Name()] = append(byName[it.Method(i).Name()], it)
				}
			}
		}
	}
	addScope(types.Universe)
	seen := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if seen[p] {
			return
		}
		seen[p] = true
		addScope(p.Scope())
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range l.pkgs {
		walk(p)
	}

	out := map[types.Object]bool{}
	for path, p := range l.pkgs {
		if !strings.HasPrefix(path, "cfdclean/internal/") {
			continue
		}
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				for _, it := range byName[m.Name()] {
					if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
						out[m] = true
						break
					}
				}
			}
		}
	}
	return out
}

// surfaceMethods returns the exported methods of the library's surface,
// and its types: the types api.go aliases, and every type under internal/
// an exported method or field of a surface type returns or holds (through
// pointers, slices, maps and channels), transitively.
func surfaceMethods(l *moduleLoader) (map[types.Object]bool, map[*types.Named]bool) {
	var queue []*types.Named
	seen := map[*types.Named]bool{}
	add := func(typ types.Type) {
		for {
			switch u := types.Unalias(typ).(type) {
			case *types.Pointer:
				typ = u.Elem()
				continue
			case *types.Slice:
				typ = u.Elem()
				continue
			case *types.Map:
				typ = u.Elem()
				continue
			case *types.Chan:
				typ = u.Elem()
				continue
			case *types.Named:
				if p := u.Obj().Pkg(); p != nil && strings.HasPrefix(p.Path(), "cfdclean/internal/") && !seen[u.Origin()] {
					seen[u.Origin()] = true
					queue = append(queue, u.Origin())
				}
			}
			return
		}
	}
	root := l.pkgs["cfdclean"]
	for _, name := range root.Scope().Names() {
		tn, ok := root.Scope().Lookup(name).(*types.TypeName)
		if ok && tn.IsAlias() && filepath.Base(l.fset.Position(tn.Pos()).Filename) == "api.go" {
			add(tn.Type())
		}
	}
	out := map[types.Object]bool{}
	for len(queue) > 0 {
		named := queue[0]
		queue = queue[1:]
		st, ok := named.Underlying().(*types.Struct)
		for i := 0; ok && i < st.NumFields(); i++ {
			if st.Field(i).Exported() {
				add(st.Field(i).Type())
			}
		}
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			if !m.Exported() {
				continue
			}
			out[m] = true
			res := m.Type().(*types.Signature).Results()
			for j := 0; j < res.Len(); j++ {
				add(res.At(j).Type())
			}
		}
	}
	return out, seen
}
