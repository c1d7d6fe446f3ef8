package repro

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportedKeep names the exported functions and methods in internal/ that
// no program calls but that stay, each with the reason it stays.
var exportedKeep = map[string]string{
	"Workspace.InUse":      "tests in nn and distdl count the buffers a pass leaves borrowed",
	"WithGrain":            "the tensor and nn tests drive ParallelFor chunking at a fixed grain",
	"Tensor.Fill":          "tests in nn, distdl and pipeline build constant inputs with it",
	"Col2ImInto":           "the conv engine's property tests check dX against the im2col lowering",
	"MatMulAccBiasActInto": "refGRU in the nn tests runs the GRU through the unfused GEMM path",
	"EmitPlannedTrace":     "the causal golden fixture in telemetry is emitted from the pipeline plan",
	"Result.Metric":        "the core experiment tests read pinned metrics by name",
}

// TestExportedFuncsHaveProgramCallers fails on an exported function or
// method in internal/ that no non-test file in internal/, cmd/ or
// benchmark/ names. The scan matches names only, without type checking: a
// declaration counts as called when some program file uses its name as a
// selector or an identifier.
func TestExportedFuncsHaveProgramCallers(t *testing.T) {
	fset := token.NewFileSet()
	type decl struct{ key, pos string }
	var decls []decl
	used := map[string]bool{}
	for _, root := range []string{"internal", "cmd", "benchmark"} {
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
				return err
			}
			f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			declared := map[*ast.Ident]bool{}
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok {
					continue
				}
				declared[fd.Name] = true
				if root != "internal" || !fd.Name.IsExported() {
					continue
				}
				key := fd.Name.Name
				if fd.Recv != nil {
					key = recvName(fd.Recv.List[0].Type) + "." + key
				}
				decls = append(decls, decl{key, fset.Position(fd.Pos()).String()})
			}
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.SelectorExpr:
					used[n.Sel.Name] = true
				case *ast.Ident:
					if !declared[n] {
						used[n.Name] = true
					}
				}
				return true
			})
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	var unused []string
	for _, d := range decls {
		name := d.key[strings.LastIndex(d.key, ".")+1:]
		if _, keep := exportedKeep[d.key]; !keep && !used[name] {
			unused = append(unused, d.pos+": "+d.key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no caller outside tests; delete it, or keep it in exportedKeep with a reason", u)
	}
}

// recvName returns the type name of a method receiver, without pointer or
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
	return ""
}
