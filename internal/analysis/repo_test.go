package analysis_test

import (
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"strings"
	"sync"
	"testing"

	"griphon/internal/analysis"
	"griphon/internal/analysis/driver"
)

// check runs the whole suite over pkgs and renders what //lint:allow does not
// suppress, as file:line:col: analyzer: message. A package and its in-package
// test variant share source files; each finding is rendered once.
func check(l *driver.Loader, pkgs []*driver.Package) ([]string, error) {
	seen := map[string]bool{}
	var findings []string
	for _, pkg := range pkgs {
		diags, err := driver.Analyze(l.Fset, pkg, analysis.All())
		if err != nil {
			return nil, err
		}
		for _, d := range diags {
			if s := d.String(); !seen[s] {
				seen[s] = true
				findings = append(findings, s)
			}
		}
	}
	return findings, nil
}

// loadRepo loads and type-checks every package of the module once, test
// variants included, for the tests that read the repository itself.
var loadRepo = sync.OnceValues(func() (loaded struct {
	l    *driver.Loader
	pkgs []*driver.Package
}, err error) {
	loaded.l, loaded.pkgs, err = driver.Load("../..", []string{"./..."})
	return loaded, err
})

// TestRepoIsClean is the linter: every analyzer over every package of the
// module, test files included. `go test ./...` fails on a finding.
func TestRepoIsClean(t *testing.T) {
	repo, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range repo.pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s does not type-check, so its findings cannot be trusted: %v", pkg.Path, terr)
		}
	}
	findings, err := check(repo.l, repo.pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// unreachableAllowed names the functions TestNoUnreachableFuncs lets stand
// although nothing references them, each with the reason it stays.
var unreachableAllowed = map[string]string{
	"griphon/internal/sim.eventQueue.Pop": "container/heap.Interface, not among the interfaces read: heap.Pop calls it",
}

// funcKey names a function or method the same way in every type-checked copy
// of its package (the package, its test variant, its export data).
func funcKey(fn *types.Func) string {
	fn = fn.Origin()
	key := analysis.NormalizePkgPath(fn.Pkg().Path()) + "."
	if recv := fn.Type().(*types.Signature).Recv(); recv != nil {
		t := recv.Type()
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		if named, ok := t.(*types.Named); ok {
			key += named.Obj().Name() + "."
		}
	}
	return key + fn.Name()
}

// TestNoUnreachableFuncs: dead code fails the build. Every function or method
// declared in a non-test file of the module must be referenced from somewhere
// in it — another function, a test, a method value. Exempt are main and init,
// the public API (exported names of package griphon), methods that may be
// reached through an interface (by name: any interface declared in the module
// or in fmt, io, sort, encoding/json, net/http, plus error), and
// unreachableAllowed. A function only its own test calls passes: that class
// takes a reader.
func TestNoUnreachableFuncs(t *testing.T) {
	repo, err := loadRepo()
	if err != nil {
		t.Fatal(err)
	}
	used := map[string]bool{}
	ifaceMethods := map[string]bool{"Error": true}
	noteIface := func(typ types.Type) {
		if iface, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumMethods(); i++ {
				ifaceMethods[iface.Method(i).Name()] = true
			}
		}
	}
	type decl struct {
		key    string
		method string // its name, if it is one
		pos    token.Pos
	}
	var decls []decl
	for _, pkg := range repo.pkgs {
		for _, obj := range pkg.Info.Uses {
			if fn, ok := obj.(*types.Func); ok && fn.Pkg() != nil {
				used[funcKey(fn)] = true
			}
		}
		for _, sel := range pkg.Info.Selections {
			if fn, ok := sel.Obj().(*types.Func); ok && fn.Pkg() != nil {
				used[funcKey(fn)] = true
			}
		}
		for _, tv := range pkg.Info.Types {
			if tv.IsType() {
				noteIface(tv.Type)
			}
		}
		for _, imp := range pkg.Types.Imports() {
			switch imp.Path() {
			case "fmt", "io", "sort", "encoding/json", "net/http":
				for _, name := range imp.Scope().Names() {
					if tn, ok := imp.Scope().Lookup(name).(*types.TypeName); ok {
						noteIface(tn.Type())
					}
				}
			}
		}
		for _, file := range pkg.Files {
			if strings.HasSuffix(repo.l.Fset.File(file.Pos()).Name(), "_test.go") {
				continue
			}
			for _, node := range file.Decls {
				fd, ok := node.(*ast.FuncDecl)
				if !ok || fd.Name.Name == "main" || fd.Name.Name == "init" || fd.Name.Name == "_" {
					continue
				}
				if pkg.Path == "griphon" && fd.Name.IsExported() {
					continue
				}
				d := decl{key: funcKey(pkg.Info.Defs[fd.Name].(*types.Func)), pos: fd.Name.Pos()}
				if fd.Recv != nil {
					d.method = fd.Name.Name
				}
				decls = append(decls, d)
			}
		}
	}
	reported := map[string]bool{}
	for _, d := range decls {
		// Checked here, not where declared: the interface may be in a
		// package loaded after the method's.
		if used[d.key] || reported[d.key] || ifaceMethods[d.method] {
			continue
		}
		reported[d.key] = true
		if _, ok := unreachableAllowed[d.key]; !ok {
			t.Errorf("%s: %s is referenced by nothing, not even a test: delete it, or name it in unreachableAllowed with the reason it stays",
				repo.l.Fset.Position(d.pos), d.key)
		}
	}
	for key := range unreachableAllowed {
		if !reported[key] {
			t.Errorf("unreachableAllowed names %s, which is referenced or gone: drop the entry", key)
		}
	}
}

// TestRepoCheckReports: a linter that is a test has to be shown able to fail.
// The same check, pointed at a fixture that reads the wall clock under a
// package path with no exemption, must report it.
func TestRepoCheckReports(t *testing.T) {
	l, err := driver.LoadIndex(".", []string{"time", "math/rand"})
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob("testdata/wallclock/flag/*.go")
	if err != nil || len(files) == 0 {
		t.Fatalf("no fixture files (%v)", err)
	}
	pkg, err := l.CheckFiles("example/fixture", files, nil)
	if err != nil {
		t.Fatal(err)
	}
	findings, err := check(l, []*driver.Package{pkg})
	if err != nil {
		t.Fatal(err)
	}
	form := regexp.MustCompile(`^testdata/wallclock/flag/fixture\.go:\d+:\d+: wallclock: time\.Now reads the wall clock`)
	for _, f := range findings {
		if form.MatchString(f) {
			return
		}
	}
	t.Errorf("no wallclock finding in file:line:col: analyzer: message form among %q", findings)
}
