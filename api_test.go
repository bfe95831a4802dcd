package sudc

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unusedAPIAllow lists the exported identifiers under internal/ and
// cmd/internal/ that may stay without a non-test caller, each with the
// reason. A key is a package directory, which covers every identifier
// in it, or one identifier as TestNoUnusedExportedAPI names it.
var unusedAPIAllow = map[string]string{
	"internal/units":               "the unit vocabulary: constructors and accessors for every dimension, used or not",
	"internal/par/partest":         "test-support package: only _test.go files import it",
	"internal/obs/trace/tracetest": "test-support package: only _test.go files import it",

	"internal/obs/trace.Kind.MarshalJSON":   "encoding/json calls it through trace.Line (WriteJSONL's schema check)",
	"internal/obs/trace.Kind.UnmarshalJSON": "encoding/json calls it in DecodeJSONL's fallback decoder",
	"internal/par.source.Int63":             "rand.Source method: rand.Rand calls it through the interface",
	"internal/sscm.Breakdown.MarshalJSON":   "encoding/json calls it when sudctool -json encodes the cost breakdown",
	"internal/topo.ClustersRing":            "cross-package test fixture: the netsim and root shard-invariance tests and ring.golden build it",
}

// TestNoUnusedExportedAPI fails on any exported top-level func, method,
// type, const or var under internal/ or cmd/internal/ whose name no
// non-test Go file of the repository mentions outside a declaration,
// bench/ and examples/ included. Such an identifier is API that nothing
// calls: delete it, move it into the _test.go file that uses it, or add
// it to unusedAPIAllow with a reason.
//
// The scan matches names, not objects, so an identifier is kept alive
// by any same-named one in use anywhere (a method Count by a field
// Count). It never flags used code; it can miss unused code.
func TestNoUnusedExportedAPI(t *testing.T) {
	type decl struct {
		dir, key, name, pos string
	}
	var decls []decl
	dirs := map[string]bool{} // scanned package directories
	mentions := map[string]int{}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		dir := filepath.ToSlash(filepath.Dir(path))
		scanned := strings.HasPrefix(dir, "internal/") || strings.HasPrefix(dir, "cmd/internal/")
		if scanned {
			dirs[dir] = true
		}
		declared := map[*ast.Ident]bool{}
		add := func(id *ast.Ident, recv ast.Expr) {
			declared[id] = true
			if !scanned || !id.IsExported() {
				return
			}
			key := dir + "." + id.Name
			if recv != nil {
				key = dir + "." + recvName(recv) + "." + id.Name
			}
			decls = append(decls, decl{dir: dir, key: key, name: id.Name, pos: fset.Position(id.Pos()).String()})
		}
		for _, dcl := range f.Decls {
			switch dcl := dcl.(type) {
			case *ast.FuncDecl:
				var recv ast.Expr
				if dcl.Recv != nil {
					recv = dcl.Recv.List[0].Type
				}
				add(dcl.Name, recv)
			case *ast.GenDecl:
				for _, spec := range dcl.Specs {
					switch spec := spec.(type) {
					case *ast.TypeSpec:
						add(spec.Name, nil)
					case *ast.ValueSpec:
						for _, id := range spec.Names {
							add(id, nil)
						}
					}
				}
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				mentions[id.Name]++
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(decls) == 0 {
		t.Fatal("found no exported identifiers under internal/: is the test running from the repository root?")
	}

	var unused []string
	needed := map[string]bool{}
	for _, d := range decls {
		if mentions[d.name] > 0 {
			continue
		}
		if _, ok := unusedAPIAllow[d.key]; ok {
			needed[d.key] = true
			continue
		}
		if _, ok := unusedAPIAllow[d.dir]; ok {
			continue
		}
		unused = append(unused, fmt.Sprintf("%s: %s", d.pos, d.key))
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s is exported but no non-test file uses it: delete it, move it into the _test.go file that uses it, or allowlist it with a reason", u)
	}
	for key, reason := range unusedAPIAllow {
		if reason == "" {
			t.Errorf("allowlist entry %s has no reason", key)
		}
		if !dirs[key] && !needed[key] {
			t.Errorf("allowlist entry %s names no scanned package and no unused identifier: delete the entry", key)
		}
	}
}

// recvName returns a method receiver's type name, without pointer or
// type parameters.
func recvName(e ast.Expr) string {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvName(e.X)
	case *ast.IndexExpr:
		return recvName(e.X)
	case *ast.IndexListExpr:
		return recvName(e.X)
	case *ast.Ident:
		return e.Name
	}
	return fmt.Sprintf("%T", e)
}
