package newgame

// The census: which code the reproduction reaches. The repository is the
// paper's ecosystem, so every declaration exists to regenerate a figure or
// to serve a timing answer. A function, method, package-level type or
// package-level variable that no command, example or benchmark reaches, and
// that censusAllow does not name, fails TestCensus.

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// censusAllow names the declarations nothing reaches that stay anyway, each
// with one of two reasons: a test oracle (a reference implementation, or a
// cross-package accessor, that tests compare product code against), or an
// open ROADMAP item that names it as its input. An entry that names nothing,
// or that the rest of the program reaches without it, fails the census, so
// the list can only shrink.
var censusAllow = map[string]string{
	"circuits.NewSimulator":              "test oracle: opt's logic-preservation tests simulate a design before and after each fix",
	"circuits.(*Simulator).Eval":         "test oracle: opt's logic-preservation tests",
	"circuits.(*Simulator).Outputs":      "test oracle: opt's logic-preservation tests",
	"netlist.(*Design).Validate":         "test oracle: the structural invariants every netlist, opt and cts edit test checks",
	"parasitics.(*Tree).DelayD2M":        "test oracle: the reference the moment kernel and sta's delay-calc test compare against",
	"parasitics.(*Tree).SlewDegradation": "test oracle: the reference the moment kernel and sta's delay-calc test compare against",
	"spice.(*Circuit).R":                 "test oracle: the solver's analytic RC checks",
	"spice.Pulse":                        "test oracle: the solver's analytic RC checks",
	"spice.(*Result).At":                 "test oracle: the solver's analytic checks read a node's waveform through it",
	"variation.SpiceMC":                  "test oracle: the transistor-level cross-check of PathMC",
	"variation.sampleRNG":                "test oracle: the per-sample generator the stream sampler is checked draw for draw against",
	"obs.(*Histogram).Count":             "test oracle: the cross-package accessor sta's counter tests read",
	"variation.GenerateAOCV":             "ROADMAP item 13: the input of the characterized AOCV tables",
	"cts.Synthesize":                     "ROADMAP item 15: the shared-prefix clock tree of the pipeline fixture",
	"cts.MCMMSkew":                       "ROADMAP item 15: the shared-prefix clock tree of the pipeline fixture",
}

// censusModules are the module roots the census reads, relative to this
// package, with their module paths.
var censusModules = []struct{ dir, path string }{
	{".", "newgame"},
	{"bench", "newgame/bench"},
}

func TestCensus(t *testing.T) {
	fset := token.NewFileSet()
	srcs := map[string][]*ast.File{}
	for _, m := range censusModules {
		if err := censusLoad(fset, m.dir, m.path, srcs); err != nil {
			t.Fatal(err)
		}
	}
	dead, stale, err := runCensus(fset, srcs, censusAllow)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range dead {
		t.Errorf("unreached: %s — delete it, or add a censusAllow line with its reason", d)
	}
	for _, s := range stale {
		t.Errorf("stale censusAllow entry: %s", s)
	}
}

// TestCensusFixtures runs the census over small in-memory programs.
func TestCensusFixtures(t *testing.T) {
	const box = `package box

type Box[T any] struct{ v T }

func (b Box[T]) Get() T          { return b.v }
func (b Box[T]) Put(v T) Box[T] { return Box[T]{v} }
`
	cases := []struct {
		name  string
		srcs  map[string]string // import path → one file
		allow map[string]string
		dead  []string
		stale []string
	}{{
		name: "a dead function and a dead variable are flagged, an initialiser is a root",
		srcs: map[string]string{"newgame/cmd/fix": `package main

var table = build()

func build() []int { return nil }
func used()        {}
func dead()        {}
func main()        { used() }
`},
		dead: []string{"cmd/fix.dead", "cmd/fix.table"},
	}, {
		name: "a method a standard-library interface declares is kept",
		srcs: map[string]string{"newgame/cmd/fix": `package main

import "math/rand"

// splitmix is a rand.Source64: math/rand calls Uint64 through the interface.
type splitmix struct{ s uint64 }

func (r *splitmix) Uint64() uint64 { r.s += 0x9e3779b97f4a7c15; return r.s }
func (r *splitmix) Int63() int64   { r.s++; return int64(r.s >> 1) }
func (r *splitmix) Seed(s int64)   { r.s = uint64(s) }
func (r *splitmix) Jump()          {}

func main() { println(rand.New(&splitmix{}).Float64()) }
`},
		dead: []string{"cmd/fix.(*splitmix).Jump"},
	}, {
		name: "a method reached only through a generic instantiation is kept",
		srcs: map[string]string{
			"newgame/internal/box": box,
			"newgame/cmd/fix": `package main

import "newgame/internal/box"

func main() { println(box.Box[int]{}.Get()) }
`},
		dead: []string{"box.Box.Put"},
	}, {
		name: "a stale allowlist entry fails, a live one keeps what it reaches",
		srcs: map[string]string{"newgame/cmd/fix": `package main

func used()   {}
func oracle() { helper() }
func helper() {}
func main()   { used() }
`},
		allow: map[string]string{
			"cmd/fix.used":   "test oracle",
			"cmd/fix.gone":   "test oracle",
			"cmd/fix.oracle": "test oracle",
		},
		stale: []string{"cmd/fix.gone: names no declaration", "cmd/fix.used: reached without its entry"},
	}}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fset := token.NewFileSet()
			srcs := map[string][]*ast.File{}
			for p, src := range tc.srcs {
				f, err := parser.ParseFile(fset, p+"/fix.go", src, parser.SkipObjectResolution)
				if err != nil {
					t.Fatal(err)
				}
				srcs[p] = []*ast.File{f}
			}
			dead, stale, err := runCensus(fset, srcs, tc.allow)
			if err != nil {
				t.Fatal(err)
			}
			for i, d := range dead {
				dead[i], _, _ = strings.Cut(d, " (")
			}
			if fmt.Sprint(dead) != fmt.Sprint(tc.dead) {
				t.Errorf("dead = %q, want %q", dead, tc.dead)
			}
			if fmt.Sprint(stale) != fmt.Sprint(tc.stale) {
				t.Errorf("stale = %q, want %q", stale, tc.stale)
			}
		})
	}
}

// censusLoad parses the non-test Go files go/build selects in every package
// directory of the module at dir into srcs, keyed by import path. Nested
// modules, testdata and hidden directories are skipped.
func censusLoad(fset *token.FileSet, dir, modPath string, srcs map[string][]*ast.File) error {
	return filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if p != dir {
			name := d.Name()
			if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(p, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := build.ImportDir(p, 0)
		if _, ok := err.(*build.NoGoError); ok {
			return nil
		}
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(dir, p)
		if err != nil {
			return err
		}
		ip := path.Join(modPath, filepath.ToSlash(rel))
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			srcs[ip] = append(srcs[ip], f)
		}
		return nil
	})
}

// censusProgram type-checks the program's packages in dependency order: an
// import of one of them is checked from srcs, any other import comes from
// the standard library's source.
type censusProgram struct {
	fset *token.FileSet
	srcs map[string][]*ast.File
	pkgs map[string]*types.Package
	info *types.Info
	std  types.Importer
}

func (c *censusProgram) Import(path string) (*types.Package, error) {
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	files, ok := c.srcs[path]
	if !ok {
		return c.std.Import(path)
	}
	conf := types.Config{Importer: c}
	p, err := conf.Check(path, c.fset, files, c.info)
	if err != nil {
		return nil, err
	}
	c.pkgs[path] = p
	return p, nil
}

// runCensus returns the declarations of srcs that no root reaches and the
// allow entries that are stale. The roots are every main, every init, every
// package-level variable's initialiser and every allow entry. A declaration
// reaches what its identifiers use, generic instances normalised to their
// origin; a type reaches each of its methods that some interface of the
// program or of its standard-library imports declares with the same name
// and signature, since such a method may be called through the interface.
// Constants are not reported: they name values, not code.
func runCensus(fset *token.FileSet, srcs map[string][]*ast.File, allow map[string]string) (dead, stale []string, err error) {
	// The pure-Go variants of the standard library need no C toolchain.
	build.Default.CgoEnabled = false
	c := &censusProgram{
		fset: fset,
		srcs: srcs,
		pkgs: map[string]*types.Package{},
		info: &types.Info{
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
			Types: map[ast.Expr]types.TypeAndValue{},
		},
		std: importer.ForCompiler(fset, "source", nil),
	}
	paths := make([]string, 0, len(srcs))
	for p := range srcs {
		paths = append(paths, p)
	}
	sort.Strings(paths)
	for _, p := range paths {
		if _, err := c.Import(p); err != nil {
			return nil, nil, err
		}
	}

	edges := map[types.Object][]types.Object{}
	var roots, reported []types.Object
	refs := func(n ast.Node) (out []types.Object) {
		ast.Inspect(n, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok {
				if u := c.info.Uses[id]; u != nil {
					if f, ok := u.(*types.Func); ok {
						u = f.Origin()
					}
					out = append(out, u)
				}
			}
			return true
		})
		return out
	}
	var ifaces []*types.Interface
	for _, p := range paths {
		for _, f := range srcs[p] {
			ast.Inspect(f, func(n ast.Node) bool {
				if it, ok := n.(*ast.InterfaceType); ok {
					ifaces = append(ifaces, c.info.TypeOf(it).Underlying().(*types.Interface))
				}
				return true
			})
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					obj := c.info.Defs[decl.Name]
					edges[obj] = refs(decl)
					switch {
					case decl.Recv == nil && decl.Name.Name == "init":
						roots = append(roots, obj)
					case decl.Recv == nil && decl.Name.Name == "main" && obj.Pkg().Name() == "main":
						roots = append(roots, obj)
					case decl.Name.Name != "_":
						reported = append(reported, obj)
					}
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							obj := c.info.Defs[spec.Name]
							edges[obj] = refs(spec)
							reported = append(reported, obj)
						case *ast.ValueSpec:
							if decl.Tok == token.VAR {
								roots = append(roots, refs(spec)...)
							}
							for _, name := range spec.Names {
								obj := c.info.Defs[name]
								switch {
								case name.Name == "_":
								case decl.Tok == token.VAR:
									reported = append(reported, obj)
								default: // a constant reaches its type, which an implicit repetition does not name
									edges[obj] = refs(spec)
									if n, ok := obj.Type().(*types.Named); ok {
										edges[obj] = append(edges[obj], n.Obj())
									}
								}
							}
						}
					}
				}
			}
		}
	}
	ifaces = append(ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	visited := map[*types.Package]bool{}
	var stdIfaces func(p *types.Package)
	stdIfaces = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		if _, own := srcs[p.Path()]; !own {
			for _, name := range p.Scope().Names() {
				if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
					if it, ok := tn.Type().Underlying().(*types.Interface); ok {
						ifaces = append(ifaces, it)
					}
				}
			}
		}
		for _, q := range p.Imports() {
			stdIfaces(q)
		}
	}
	for _, p := range paths {
		stdIfaces(c.pkgs[p])
	}
	declared := map[string][]*types.Signature{}
	for _, it := range ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			declared[m.Name()] = append(declared[m.Name()], m.Type().(*types.Signature))
		}
	}
	for _, obj := range reported {
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named := tn.Type().(*types.Named)
		for i := 0; i < named.NumMethods(); i++ {
			m := named.Method(i)
			for _, sig := range declared[m.Name()] {
				if types.Identical(m.Type(), sig) {
					edges[obj] = append(edges[obj], m)
					break
				}
			}
		}
	}

	byName := map[string]types.Object{}
	for _, obj := range reported {
		byName[censusName(obj)] = obj
	}
	reach := func(roots []types.Object) map[types.Object]bool {
		seen := map[types.Object]bool{}
		work := append([]types.Object(nil), roots...)
		for len(work) > 0 {
			obj := work[len(work)-1]
			work = work[:len(work)-1]
			if seen[obj] {
				continue
			}
			seen[obj] = true
			work = append(work, edges[obj]...)
		}
		return seen
	}
	var allowed []types.Object
	names := make([]string, 0, len(allow))
	for name := range allow {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		obj, ok := byName[name]
		if !ok {
			stale = append(stale, name+": names no declaration")
			continue
		}
		allowed = append(allowed, obj)
	}
	for i, obj := range allowed {
		others := append(append([]types.Object(nil), roots...), allowed[:i]...)
		if reach(append(others, allowed[i+1:]...))[obj] {
			stale = append(stale, censusName(obj)+": reached without its entry")
		}
	}
	reached := reach(append(roots, allowed...))
	for _, obj := range reported {
		if !reached[obj] {
			pos := fset.Position(obj.Pos())
			dead = append(dead, fmt.Sprintf("%s (%s:%d)", censusName(obj), pos.Filename, pos.Line))
		}
	}
	sort.Strings(dead)
	sort.Strings(stale)
	return dead, stale, nil
}

// censusName spells a declaration the way censusAllow does: its package path
// without the module's "newgame/internal/" or "newgame/" prefix, then the
// name, a method's qualified by its receiver: "sta.(*Analyzer).Run",
// "ffchar.Config.Setup".
func censusName(obj types.Object) string {
	pkg := strings.TrimPrefix(strings.TrimPrefix(obj.Pkg().Path(), "newgame/internal/"), "newgame/")
	if f, ok := obj.(*types.Func); ok {
		if recv := f.Type().(*types.Signature).Recv(); recv != nil {
			t, star := recv.Type(), ""
			if p, ok := t.(*types.Pointer); ok {
				t, star = p.Elem(), "*"
			}
			base := t.(*types.Named).Obj().Name()
			if star != "" {
				return fmt.Sprintf("%s.(*%s).%s", pkg, base, f.Name())
			}
			return fmt.Sprintf("%s.%s.%s", pkg, base, f.Name())
		}
	}
	return pkg + "." + obj.Name()
}
