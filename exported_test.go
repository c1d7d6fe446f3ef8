package repro

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
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
	"MatMulAccBiasActInto": "refGRU in the nn tests runs the GRU through the unfused GEMM path",
	"EmitPlannedTrace":     "the causal golden fixture in telemetry is emitted from the pipeline plan",
	"Result.Metric":        "the core experiment tests read pinned metrics by name",
	"OptimizerState.Span":  "distdl's ZeRO test checks that each rank's optimizer state spans its owned chunk",
	"Tensor.Sum":           "the tensor and nn tests check fills, gradients and output means through it",
	"Tensor.Max":           "the tensor tests bound RandUniform's draws and pin the empty-tensor panic with it",
	"Tensor.Min":           "the tensor tests bound RandUniform's draws and pin the empty-tensor panic with it",
}

// stdInterfaces names the standard-library interfaces that program code
// reaches methods through: a method that implements one of them counts as
// called. "io" stands for every interface the io package declares.
var stdInterfaces = map[string][]string{
	"":              {"error"},
	"fmt":           {"Stringer"},
	"sort":          {"Interface"},
	"io":            nil,
	"net/http":      {"Handler"},
	"encoding/json": {"Marshaler"},
}

// TestExportedFuncsHaveProgramCallers fails on an exported function or
// method in internal/ that no non-test file in internal/, cmd/ or
// benchmark/ uses. The program packages of both modules are type-checked
// from source, so a use is resolved to the object it names: a method
// counts as used when a program file refers to it, or when its type
// implements an interface that has the method — any interface the repo
// declares, or one of stdInterfaces.
func TestExportedFuncsHaveProgramCallers(t *testing.T) {
	fset := token.NewFileSet()
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	std := importer.Default()
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if p := checked[path]; p != nil {
			return p, nil
		}
		return std.Import(path)
	})
	type decl struct {
		fn       *types.Func
		key, pos string
	}
	var decls []decl
	for _, p := range append(listPackages(t, "."), listPackages(t, "benchmark")...) {
		if checked[p.path] != nil {
			continue
		}
		var files []*ast.File
		for _, name := range p.files {
			f, err := parser.ParseFile(fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
		}
		conf := types.Config{Importer: imp}
		pkg, err := conf.Check(p.path, fset, files, info)
		if err != nil {
			t.Fatal(err)
		}
		checked[p.path] = pkg
		if !strings.HasPrefix(p.path, "repro/internal/") {
			continue
		}
		for _, f := range files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				key := fd.Name.Name
				if fd.Recv != nil {
					key = recvName(fd.Recv.List[0].Type) + "." + key
				}
				decls = append(decls, decl{info.Defs[fd.Name].(*types.Func), key, fset.Position(fd.Pos()).String()})
			}
		}
	}

	used := map[*types.Func]bool{}
	for _, obj := range info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}
	var ifaces []*types.Interface
	addIfaces := func(scope *types.Scope, names []string) {
		if names == nil {
			names = scope.Names()
		}
		for _, name := range names {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			if it, ok := tn.Type().Underlying().(*types.Interface); ok {
				ifaces = append(ifaces, it)
			}
		}
	}
	for path, names := range stdInterfaces {
		scope := types.Universe
		if path != "" {
			p, err := std.Import(path)
			if err != nil {
				t.Fatal(err)
			}
			scope = p.Scope()
		}
		addIfaces(scope, names)
	}
	for _, p := range checked {
		addIfaces(p.Scope(), nil)
	}
	for _, p := range checked {
		for _, name := range p.Scope().Names() {
			tn, ok := p.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			if named, ok := tn.Type().(*types.Named); ok && named.TypeParams().Len() > 0 {
				continue
			}
			ptr := types.NewPointer(tn.Type())
			mset := types.NewMethodSet(ptr)
			for _, it := range ifaces {
				if !types.Implements(ptr, it) {
					continue
				}
				for i := 0; i < it.NumMethods(); i++ {
					m := it.Method(i)
					if sel := mset.Lookup(m.Pkg(), m.Name()); sel != nil {
						used[sel.Obj().(*types.Func).Origin()] = true
					}
				}
			}
		}
	}

	var unused []string
	for _, d := range decls {
		if _, keep := exportedKeep[d.key]; !keep && !used[d.fn] {
			unused = append(unused, d.pos+": "+d.key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("%s has no caller outside tests; delete it, or keep it in exportedKeep with a reason", u)
	}
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

type goPackage struct {
	path, dir string
	files     []string
}

// listPackages returns the module's own packages under dir and the repo
// packages they import, dependencies first, with their non-test Go files.
func listPackages(t *testing.T, dir string) []goPackage {
	out, err := exec.Command("go", "list", "-C", dir, "-deps",
		"-f", "{{if not .Standard}}{{.ImportPath}}\t{{.Dir}}\t{{join .GoFiles \" \"}}{{end}}", "./...").Output()
	if err != nil {
		t.Fatalf("go list in %s: %v", dir, err)
	}
	var pkgs []goPackage
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Split(line, "\t")
		if len(f) == 3 && f[2] != "" {
			pkgs = append(pkgs, goPackage{f[0], f[1], strings.Fields(f[2])})
		}
	}
	return pkgs
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
