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
	"sync"
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
// declares, or one of stdInterfaces — and a program file names the type
// outside the type's own method declarations.
func TestExportedFuncsHaveProgramCallers(t *testing.T) {
	p := loadProgram(t)
	unused, err := p.unusedFuncs(isInternal, exportedKeep)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range unused {
		t.Errorf("%s has no caller outside tests; delete it, or keep it in exportedKeep with a reason", u)
	}
}

// fieldKeep names the struct fields in internal/ that fieldFindings reports
// but that stay, each with the reason. A key is package.Type.Field; the
// key package.* exempts every input struct of the package from the rule
// that programs outside it set each field.
var fieldKeep = map[string]string{
	"ft.Report.FinalParams":            "the double-run determinism test compares the recovered parameters bit for bit",
	"ft.Report.Survivors":              "the crash tests check which ranks the shrunk world kept",
	"ft.Options.Store":                 "the retention test reads back the checkpoints the supervisor wrote",
	"mapreduce.KMeansResult.Centroids": "the k-means test checks that every true centre has a centroid near it",
	"sched.phaseExec.Module":           "the placement tests check which module each phase ran on",
	"sched.phaseExec.Start":            "the chaining tests check that a job's next phase starts no earlier than its previous one ends",
	"sched.phaseExec.End":              "the chaining tests check phase order, and the invariant test that every job ends within the makespan",
	"sched.phaseExec.PhaseIdx":         "the invariant test checks that a job's phases ran in order",
	"fleet.GroupSpec.Kind":             "benchmark/serving.go labels its serving groups with the module kind; the field goes with the next change to benchmark/",
	"fleet.GroupStats.Name":            "the router tests tell which group served a request by its name",
	"msa.*":                            "msa/configs.go holds the paper's Table I systems as literals: a spec field is a column of that table, set there rather than by the programs that build their own systems",
}

// TestFieldsAreReadAndSettingsSet fails on a struct field in internal/ that
// no program file reads, on one that program code reads but never writes,
// and on an exported field of a Config, Options or Spec input (a struct
// that a program file outside its package builds as a literal) that no
// program file outside that package sets. See fieldFindings for what
// counts as a read and as a write.
func TestFieldsAreReadAndSettingsSet(t *testing.T) {
	p := loadProgram(t)
	for _, f := range p.fieldFindings(isInternal, fieldKeep) {
		t.Errorf("%s; delete it or make it a constant, or keep it in fieldKeep with a reason", f)
	}
}

func isInternal(path string) bool { return strings.HasPrefix(path, "repro/internal/") }

// program is the type-checked program code: every non-test Go file of
// both modules (internal/, cmd/ and benchmark/).
type program struct {
	fset    *token.FileSet
	info    *types.Info
	std     types.Importer
	checked map[string]*types.Package
	files   map[*types.Package][]*ast.File
	order   []*types.Package
}

func newProgram() *program {
	return &program{
		fset: token.NewFileSet(),
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
		std:     importer.Default(),
		checked: map[string]*types.Package{},
		files:   map[*types.Package][]*ast.File{},
	}
}

func (p *program) Import(path string) (*types.Package, error) {
	if pkg := p.checked[path]; pkg != nil {
		return pkg, nil
	}
	return p.std.Import(path)
}

// check type-checks one package whose imports are already checked.
func (p *program) check(path string, files []*ast.File) error {
	conf := types.Config{Importer: p}
	pkg, err := conf.Check(path, p.fset, files, p.info)
	if err != nil {
		return err
	}
	p.checked[path] = pkg
	p.files[pkg] = files
	p.order = append(p.order, pkg)
	return nil
}

var (
	loadOnce   sync.Once
	loaded     *program
	loadFailed error
)

// loadProgram parses and type-checks the program code once for every test
// of this package.
func loadProgram(t *testing.T) *program {
	loadOnce.Do(func() {
		p := newProgram()
		for _, lp := range append(listPackages(t, "."), listPackages(t, "benchmark")...) {
			if p.checked[lp.path] != nil {
				continue
			}
			var files []*ast.File
			for _, name := range lp.files {
				f, err := parser.ParseFile(p.fset, filepath.Join(lp.dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					loadFailed = err
					return
				}
				files = append(files, f)
			}
			if loadFailed = p.check(lp.path, files); loadFailed != nil {
				return
			}
		}
		loaded = p
	})
	if loadFailed != nil {
		t.Fatal(loadFailed)
	}
	if loaded == nil {
		t.Fatal("program load failed in an earlier test")
	}
	return loaded
}

// unusedFuncs lists the exported functions and methods of the packages
// that declared selects that no program code uses and keep does not name.
// It fails only if a standard-library interface package does not import.
func (p *program) unusedFuncs(declared func(path string) bool, keep map[string]string) ([]string, error) {
	used := map[*types.Func]bool{}
	for _, obj := range p.info.Uses {
		if fn, ok := obj.(*types.Func); ok {
			used[fn.Origin()] = true
		}
	}

	// A type is named when a program file refers to it outside the
	// declarations of its own methods.
	named := map[*types.TypeName]bool{}
	for _, pkg := range p.order {
		for _, f := range p.files[pkg] {
			for _, d := range f.Decls {
				var recv types.Object
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					recv = p.info.Uses[recvIdent(fd.Recv.List[0].Type)]
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if id, ok := n.(*ast.Ident); ok {
						if tn, ok := p.info.Uses[id].(*types.TypeName); ok && tn != recv {
							named[tn] = true
						}
					}
					return true
				})
			}
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
			if nt, ok := tn.Type().(*types.Named); ok && nt.TypeParams().Len() > 0 {
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
			pkg, err := p.std.Import(path)
			if err != nil {
				return nil, err
			}
			scope = pkg.Scope()
		}
		addIfaces(scope, names)
	}
	for _, pkg := range p.order {
		addIfaces(pkg.Scope(), nil)
	}
	for _, pkg := range p.order {
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) || !named[tn] {
				continue
			}
			if nt, ok := tn.Type().(*types.Named); ok && nt.TypeParams().Len() > 0 {
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
	for _, pkg := range p.order {
		if !declared(pkg.Path()) {
			continue
		}
		for _, f := range p.files[pkg] {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || !fd.Name.IsExported() {
					continue
				}
				key := fd.Name.Name
				if fd.Recv != nil {
					key = recvIdent(fd.Recv.List[0].Type).Name + "." + key
				}
				if _, ok := keep[key]; !ok && !used[p.info.Defs[fd.Name].(*types.Func)] {
					unused = append(unused, p.fset.Position(fd.Pos()).String()+": "+key)
				}
			}
		}
	}
	sort.Strings(unused)
	return unused, nil
}

// fieldFindings reports three kinds of struct field in the packages that
// declared selects, unless keep names the field:
//
//   - a field no program code reads;
//   - a field program code reads but never writes;
//   - an exported field of an input struct — one that a program file
//     outside the declaring package builds as a composite literal with at
//     least one element — that no program file outside that package
//     writes. A default the declaring package fills in does not count.
//
// A read is a selector use. A write is the left side of an assignment or
// an inc/dec, or an element of a composite literal, keyed or not (the
// elided &T{…} elements of a []*T literal included). For the second rule
// an index store (x.f[i] = …), &x.f, a slice of an array field (x.f[:])
// and a method call on x.f are writes too. A struct handed whole to encoding/json or to a fmt print has all
// its fields read, transitively (encoding/json also writes them), and so
// has a struct compared with == or used as a map key.
func (p *program) fieldFindings(declared func(path string) bool, keep map[string]string) []string {
	read := map[*types.Var]bool{}
	written := map[*types.Var]bool{}    // by a direct write or a mutation
	setOutside := map[*types.Var]bool{} // written outside the declaring package
	inputs := map[*types.Struct]bool{}  // built as a literal outside the declaring package

	// whole marks every field of a value of type t read, and written too
	// when the value is decoded. A comparison reads only the value itself;
	// a fmt print also reads the elements of slices and maps, and json
	// follows pointers as well.
	type reach int
	const (
		compared reach = iota
		printed
		marshalled
	)
	var whole func(t types.Type, how reach, seen map[types.Type]bool)
	whole = func(t types.Type, how reach, seen map[types.Type]bool) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		switch u := t.Underlying().(type) {
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				f := u.Field(i).Origin()
				read[f] = true
				if how == marshalled {
					written[f] = true
				}
				whole(f.Type(), how, seen)
			}
		case *types.Array:
			whole(u.Elem(), how, seen)
		case *types.Slice:
			if how >= printed {
				whole(u.Elem(), how, seen)
			}
		case *types.Map:
			if how >= printed {
				whole(u.Key(), how, seen)
				whole(u.Elem(), how, seen)
			}
		case *types.Pointer:
			if how == marshalled {
				whole(u.Elem(), how, seen)
			}
		}
	}

	for _, pkg := range p.order {
		for _, file := range p.files[pkg] {
			var stack []ast.Node
			ast.Inspect(file, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if sel := p.info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal {
						f := sel.Obj().(*types.Var).Origin()
						switch fieldUse(p.info, n, stack) {
						case useWrite:
							written[f] = true
							if f.Pkg() != pkg {
								setOutside[f] = true
							}
						case useMutate:
							read[f], written[f] = true, true
						default:
							read[f] = true
						}
					}
				case *ast.CompositeLit:
					t := p.info.Types[n].Type
					if ptr, ok := t.Underlying().(*types.Pointer); ok {
						t = ptr.Elem()
					}
					st, ok := t.Underlying().(*types.Struct)
					if !ok {
						break
					}
					if nt, ok := t.(*types.Named); ok && nt.Obj().Pkg() != pkg && len(n.Elts) > 0 {
						inputs[nt.Origin().Underlying().(*types.Struct)] = true
					}
					for i, e := range n.Elts {
						f := st.Field(i)
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							f = p.info.Uses[kv.Key.(*ast.Ident)].(*types.Var)
						}
						f = f.Origin()
						written[f] = true
						if f.Pkg() != pkg {
							setOutside[f] = true
						}
					}
				case *ast.CallExpr:
					fn, _ := calleeOf(p.info, n).(*types.Func)
					if fn == nil || fn.Pkg() == nil {
						break
					}
					switch {
					case fn.Pkg().Path() == "encoding/json":
						for _, a := range n.Args {
							whole(p.info.Types[a].Type, marshalled, map[types.Type]bool{})
						}
					case fn.Pkg().Path() == "fmt" && (strings.Contains(fn.Name(), "rint") || fn.Name() == "Errorf"):
						for _, a := range n.Args {
							// fmt prints a pointer's struct only at the top level.
							t := p.info.Types[a].Type
							if ptr, ok := t.(*types.Pointer); ok {
								t = ptr.Elem()
							}
							whole(t, printed, map[types.Type]bool{})
						}
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						whole(p.info.Types[n.X].Type, compared, map[types.Type]bool{})
					}
				case *ast.MapType:
					if m, ok := p.info.Types[n].Type.(*types.Map); ok {
						whole(m.Key(), compared, map[types.Type]bool{})
					}
				}
				stack = append(stack, n)
				return true
			})
		}
	}

	var out []string
	for _, pkg := range p.order {
		if !declared(pkg.Path()) {
			continue
		}
		for _, name := range pkg.Scope().Names() {
			tn, ok := pkg.Scope().Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			st, ok := tn.Type().Underlying().(*types.Struct)
			if !ok {
				continue
			}
			_, tableOnly := keep[pkg.Name()+".*"]
			for i := 0; i < st.NumFields(); i++ {
				f := st.Field(i)
				key := pkg.Name() + "." + name + "." + f.Name()
				if _, ok := keep[key]; ok || f.Embedded() || f.Name() == "_" {
					continue
				}
				pos := p.fset.Position(f.Pos()).String() + ": " + key
				switch {
				case !read[f]:
					out = append(out, pos+" is never read")
				case !written[f]:
					out = append(out, pos+" is read but never written")
				case inputs[st] && f.Exported() && !setOutside[f] && !tableOnly:
					out = append(out, pos+" is set by no program outside package "+pkg.Name())
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

type use int

const (
	useRead   use = iota
	useWrite      // assigned, incremented or decremented
	useMutate     // read and changed in place: x.f[i] = …, &x.f, x.f[:], x.f.M()
)

func isArray(t types.Type) bool {
	_, ok := t.Underlying().(*types.Array)
	return ok
}

// fieldUse classifies the selector x.f, whose ancestors are stack.
func fieldUse(info *types.Info, x *ast.SelectorExpr, stack []ast.Node) use {
	var child ast.Expr = x
	for i := len(stack) - 1; i >= 0; i-- {
		switch s := stack[i].(type) {
		case *ast.AssignStmt:
			for _, l := range s.Lhs {
				if l == child {
					if child == x {
						return useWrite
					}
					return useMutate
				}
			}
			return useRead
		case *ast.IncDecStmt:
			if child == x {
				return useWrite
			}
			return useMutate
		case *ast.RangeStmt:
			if s.Tok == token.ASSIGN && (s.Key == child || s.Value == child) {
				if child == x {
					return useWrite
				}
				return useMutate
			}
			return useRead
		case *ast.UnaryExpr:
			if s.Op == token.AND {
				return useMutate
			}
			return useRead
		case *ast.SelectorExpr:
			if sel := info.Selections[s]; sel != nil && sel.Kind() == types.MethodVal {
				return useMutate
			}
			child = s
		case *ast.IndexExpr:
			if s.X != child {
				return useRead
			}
			child = s
		case *ast.SliceExpr:
			// Slicing an array field, x.f[:], aliases it.
			if s.X == child && isArray(info.Types[child].Type) {
				return useMutate
			}
			return useRead
		case *ast.ParenExpr, *ast.StarExpr:
			child = s.(ast.Expr)
		default:
			return useRead
		}
	}
	return useRead
}

// calleeOf returns the function or method a call names, or nil.
func calleeOf(info *types.Info, call *ast.CallExpr) types.Object {
	switch fn := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		return info.Uses[fn]
	case *ast.SelectorExpr:
		return info.Uses[fn.Sel]
	}
	return nil
}

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

// recvIdent returns the type name of a method receiver, without pointer or
// type parameters.
func recvIdent(e ast.Expr) *ast.Ident {
	switch e := e.(type) {
	case *ast.StarExpr:
		return recvIdent(e.X)
	case *ast.IndexExpr:
		return recvIdent(e.X)
	case *ast.IndexListExpr:
		return recvIdent(e.X)
	case *ast.ParenExpr:
		return recvIdent(e.X)
	}
	return e.(*ast.Ident)
}

// fixtureLib and fixtureMain are a two-package program that exercises
// each rule of fieldFindings and the interface rule of unusedFuncs.
const fixtureLib = `package lib

import "encoding/json"

type Schedule interface{ LR(step int) float64 }

// Const is named by main, so LR counts as used through Schedule.
type Const struct{ Rate float64 }

func (c Const) LR(int) float64 { return c.Rate }

// Decay is named only by its own method: its LR is unused.
type Decay struct{ Base float64 }

func (d Decay) LR(step int) float64 { return d.Base / float64(step+1) }

// Config is an input: main builds it, and sets Size but not Noise.
type Config struct {
	Size  int
	Noise float64
	Sched Schedule
}

type Module struct {
	Name  string
	Nodes int
}

// Report is only marshalled.
type Report struct {
	Steps int
	Loss  float64
}

// key is only a map key.
type key struct{ a, b int }

type Engine struct {
	cfg    Config
	hits   int
	misses int
	trace  *int
	seen   map[key]bool
	mods   []*Module
}

func New(cfg Config) *Engine {
	if cfg.Noise == 0 {
		cfg.Noise = 0.1
	}
	return &Engine{cfg: cfg, seen: map[key]bool{}, mods: []*Module{{Name: "cm", Nodes: 2}, {"esb", 4}}}
}

func (e *Engine) Run() ([]byte, error) {
	e.hits++
	e.misses++
	e.seen[key{1, 2}] = true
	if e.trace != nil {
		return nil, nil
	}
	for _, m := range e.mods {
		e.hits += m.Nodes + len(m.Name)
	}
	return json.Marshal(Report{Steps: e.hits, Loss: e.cfg.Noise * e.cfg.Sched.LR(e.cfg.Size)})
}
`

const fixtureMain = `package main

import (
	"fmt"

	"fix/lib"
)

func main() {
	b, err := lib.New(lib.Config{Size: 8, Sched: lib.Const{Rate: 1}}).Run()
	fmt.Println(len(b), err)
}
`

// TestGuardRulesOnFixture runs both passes over fixtureLib and fixtureMain,
// so a loader or pass change that stops them seeing a read, a write or a
// method use fails here rather than silently passing the repo.
func TestGuardRulesOnFixture(t *testing.T) {
	p := newProgram()
	for _, pkg := range []struct{ path, src string }{{"fix/lib", fixtureLib}, {"fix/cmd", fixtureMain}} {
		f, err := parser.ParseFile(p.fset, pkg.path+".go", pkg.src, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		if err := p.check(pkg.path, []*ast.File{f}); err != nil {
			t.Fatal(err)
		}
	}
	isLib := func(path string) bool { return path == "fix/lib" }
	strip := func(findings []string) []string {
		for i, f := range findings {
			findings[i] = f[strings.Index(f, ": ")+2:]
		}
		return findings
	}
	got := strings.Join(strip(p.fieldFindings(isLib, nil)), "\n")
	want := strings.Join([]string{
		"lib.Decay.Base is read but never written",
		"lib.Config.Noise is set by no program outside package lib",
		"lib.Engine.misses is never read",
		"lib.Engine.trace is read but never written",
	}, "\n")
	if got != want {
		t.Errorf("field findings:\n%s\nwant:\n%s", got, want)
	}
	unused, err := p.unusedFuncs(isLib, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(strip(unused), "\n"); got != "Decay.LR" {
		t.Errorf("unused funcs:\n%s\nwant Decay.LR", got)
	}
}
