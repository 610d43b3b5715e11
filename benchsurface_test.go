package dehealth

import (
	"bufio"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// benchmarkNamesFile lists every name of this module the frozen benchmark
// program (benchmark/) uses, one per line with its tag: live (the
// production API) or compat (a Deprecated forward kept only because the
// benchmark still names it).
const benchmarkNamesFile = "scripts/benchmark_names.txt"

// TestBenchmarkNames pins the module surface the benchmark program names.
// It type-checks benchmark/ (its tests included) from source, collects
// every selector and composite-literal key that resolves into this
// module's packages — pkg.Name for package-level names, pkg.Type.Name for
// methods and fields — and requires the set to equal
// scripts/benchmark_names.txt, so a deleted name the benchmark still uses
// and a kept forward it no longer uses both fail here. A compat name must
// live in its package's compat.go, or be a struct field documented
// Deprecated.
func TestBenchmarkNames(t *testing.T) {
	used, decl := benchmarkSurface(t)
	listed := readBenchmarkNames(t)
	for _, name := range sortedKeys(used) {
		if _, ok := listed[name]; !ok {
			t.Errorf("benchmark/ uses %s, missing from %s", name, benchmarkNamesFile)
		}
	}
	for _, name := range sortedKeys(listed) {
		tag := listed[name]
		if _, ok := used[name]; !ok {
			t.Errorf("%s lists %s, which benchmark/ no longer uses", benchmarkNamesFile, name)
			continue
		}
		inCompat := filepath.Base(decl[name].Filename) == "compat.go"
		switch {
		case tag != "live" && tag != "compat":
			t.Errorf("%s: %s has tag %q, want live or compat", benchmarkNamesFile, name, tag)
		case tag == "live" && inCompat:
			t.Errorf("%s is tagged live but declared in %s", name, decl[name].Filename)
		case tag == "compat" && !inCompat && !deprecatedField(t, decl[name]):
			t.Errorf("%s is tagged compat but is neither in a compat.go nor a Deprecated field (%s)", name, decl[name])
		}
	}
}

// benchmarkSurface type-checks the benchmark package and returns the
// module names it uses, each with the position of its declaration.
func benchmarkSurface(t *testing.T) (used map[string]bool, decl map[string]token.Position) {
	t.Helper()
	fset := token.NewFileSet()
	paths, err := filepath.Glob("benchmark/*.go")
	if err != nil || len(paths) == 0 {
		t.Fatalf("no benchmark sources: %v", err)
	}
	var files []*ast.File
	for _, p := range paths {
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
	if _, err := conf.Check("dehealth/benchmark", fset, files, info); err != nil {
		t.Fatalf("type-checking benchmark/: %v", err)
	}

	used, decl = map[string]bool{}, map[string]token.Position{}
	add := func(obj types.Object, owner types.Type) {
		pkg := obj.Pkg()
		if pkg == nil || !inModule(pkg.Path()) {
			return
		}
		name := pkg.Name() + "." + obj.Name()
		if owner != nil {
			n, ok := types.Unalias(deref(owner)).(*types.Named)
			if !ok {
				return // a field of an unnamed struct
			}
			if !inModule(n.Obj().Pkg().Path()) {
				return
			}
			name = n.Obj().Pkg().Name() + "." + n.Obj().Name() + "." + obj.Name()
		}
		used[name] = true
		decl[name] = fset.Position(obj.Pos())
	}
	for _, f := range files {
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.SelectorExpr:
				if sel, ok := info.Selections[n]; ok {
					owner := sel.Recv()
					if fn, ok := sel.Obj().(*types.Func); ok {
						owner = fn.Type().(*types.Signature).Recv().Type()
					}
					add(sel.Obj(), owner)
				} else if obj := info.Uses[n.Sel]; obj != nil {
					add(obj, nil)
				}
			case *ast.CompositeLit:
				tv, ok := info.Types[n]
				if !ok {
					return true
				}
				for _, elt := range n.Elts {
					kv, ok := elt.(*ast.KeyValueExpr)
					if !ok {
						continue
					}
					if key, ok := kv.Key.(*ast.Ident); ok {
						if field, ok := info.Uses[key].(*types.Var); ok && field.IsField() {
							add(field, tv.Type)
						}
					}
				}
			}
			return true
		})
	}
	return used, decl
}

// inModule reports whether an import path belongs to this module, outside
// the benchmark package itself.
func inModule(path string) bool {
	return (path == "dehealth" || strings.HasPrefix(path, "dehealth/")) && path != "dehealth/benchmark"
}

func deref(t types.Type) types.Type {
	if p, ok := t.(*types.Pointer); ok {
		return p.Elem()
	}
	return t
}

// deprecatedField reports whether pos is a struct field whose doc comment
// carries a "Deprecated:" paragraph.
func deprecatedField(t *testing.T, pos token.Position) bool {
	t.Helper()
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, pos.Filename, nil, parser.ParseComments|parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	ast.Inspect(f, func(n ast.Node) bool {
		field, ok := n.(*ast.Field)
		if !ok || found {
			return !found
		}
		for _, name := range field.Names {
			if fset.Position(name.Pos()).Line == pos.Line && field.Doc != nil {
				found = strings.Contains(field.Doc.Text(), "Deprecated:")
			}
		}
		return true
	})
	return found
}

// readBenchmarkNames parses scripts/benchmark_names.txt: "name tag" per
// line, # comments and blank lines ignored.
func readBenchmarkNames(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(benchmarkNamesFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) != 2 {
			t.Fatalf("%s: want \"name tag\", got %q", benchmarkNamesFile, line)
		}
		if _, dup := out[fields[0]]; dup {
			t.Fatalf("%s lists %s twice", benchmarkNamesFile, fields[0])
		}
		out[fields[0]] = fields[1]
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
