package analysis_test

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"path/filepath"
	"regexp"
	"sort"
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

// A use is one function or struct field declared in a non-test file of the
// module, and what the module does with it.
type use struct {
	name   string // package path, then receiver or struct type, then name
	pos    token.Position
	method string // a method's name, for the interface exemption
	field  bool
	// Fields only: carrying a struct tag; of a struct named Config, Options,
	// *Config or *Options. Embedded fields are not indexed.
	tagged, knob bool
	// fromCode and fromTest: referenced from a non-test file, from a _test.go
	// file. A function calling itself does not count.
	fromCode, fromTest bool
	// Fields only. read: used anywhere other than as a write, or a field of a
	// struct that is compared or is a map key. codeWrite: written by non-test
	// code, as an assignment's left side, by ++ or --, or in a composite
	// literal. codeSet: codeWrite, or written through a nested selector or
	// its address taken, by non-test code.
	read, codeWrite, codeSet bool
}

// repoIndex records, for every function and struct field declared in a
// non-test file, where the loaded packages reference it. The four dead-state
// checks read it.
type repoIndex struct {
	fset         *token.FileSet
	decls        map[string]*use // by declaration site
	ifaceMethods map[string]bool
}

// How an identifier is used, when it is not simply read.
const (
	written = 1 + iota
	setThrough
)

// site names a declaration the same way in every type-checked copy of its
// package (the package, its test variant, its export data). Export data
// keeps the line but not the column, so the name tells apart two fields
// declared on one line.
func site(fset *token.FileSet, obj types.Object) string {
	switch o := obj.(type) {
	case *types.Func:
		obj = o.Origin()
	case *types.Var:
		obj = o.Origin()
	}
	p := fset.Position(obj.Pos())
	return fmt.Sprintf("%s %s:%d %s",
		analysis.NormalizePkgPath(obj.Pkg().Path()), filepath.Base(p.Filename), p.Line, obj.Name())
}

// funcKey names a function or method by package, receiver type and name, the
// way the allowlists spell it.
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

func isTestFile(fset *token.FileSet, file *ast.File) bool {
	return strings.HasSuffix(fset.File(file.Pos()).Name(), "_test.go")
}

func newRepoIndex(fset *token.FileSet, pkgs []*driver.Package) *repoIndex {
	ix := &repoIndex{fset: fset, decls: map[string]*use{}, ifaceMethods: map[string]bool{"Error": true}}
	for _, pkg := range pkgs {
		ix.declare(pkg)
	}
	for _, pkg := range pkgs {
		ix.reference(pkg)
	}
	return ix
}

// declare indexes the functions and struct fields of pkg's non-test files,
// and notes the method names of every interface pkg can see.
func (ix *repoIndex) declare(pkg *driver.Package) {
	noteIface := func(typ types.Type) {
		if iface, ok := typ.Underlying().(*types.Interface); ok {
			for i := 0; i < iface.NumMethods(); i++ {
				ix.ifaceMethods[iface.Method(i).Name()] = true
			}
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
	path := analysis.NormalizePkgPath(pkg.Path)
	add := func(obj types.Object, u *use) {
		u.pos = ix.fset.Position(obj.Pos())
		if k := site(ix.fset, obj); ix.decls[k] == nil {
			ix.decls[k] = u
		}
	}
	for _, file := range pkg.Files {
		if isTestFile(ix.fset, file) {
			continue
		}
		structName := map[*ast.StructType]string{}
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.FuncDecl:
				if n.Name.Name == "main" || n.Name.Name == "init" || n.Name.Name == "_" ||
					path == "griphon" && n.Name.IsExported() {
					break
				}
				fn := pkg.Info.Defs[n.Name].(*types.Func)
				u := &use{name: funcKey(fn)}
				if n.Recv != nil {
					u.method = n.Name.Name
				}
				add(fn, u)
			case *ast.TypeSpec:
				if st, ok := n.Type.(*ast.StructType); ok {
					structName[st] = n.Name.Name
				}
			case *ast.StructType:
				owner, named := structName[n]
				if !named {
					owner = "struct"
				}
				knob := named && !strings.Contains(owner, ".") &&
					(strings.HasSuffix(owner, "Config") || strings.HasSuffix(owner, "Options"))
				for _, f := range n.Fields.List {
					for _, id := range f.Names {
						if st, ok := f.Type.(*ast.StructType); ok {
							structName[st] = owner + "." + id.Name
						}
						add(pkg.Info.Defs[id], &use{name: path + "." + owner + "." + id.Name,
							field: true, tagged: f.Tag != nil, knob: knob})
					}
				}
			}
			return true
		})
	}
}

// reference records every use pkg's files make of an indexed declaration.
func (ix *repoIndex) reference(pkg *driver.Package) {
	for _, tv := range pkg.Info.Types {
		if m, ok := tv.Type.Underlying().(*types.Map); ok {
			ix.compared(m.Key())
		}
	}
	for _, file := range pkg.Files {
		test := isTestFile(ix.fset, file)
		how := map[*ast.Ident]int{}
		var through func(ast.Expr)
		through = func(e ast.Expr) {
			switch e := ast.Unparen(e).(type) {
			case *ast.SelectorExpr:
				if how[e.Sel] == 0 {
					how[e.Sel] = setThrough
				}
				through(e.X)
			case *ast.IndexExpr:
				through(e.X)
			case *ast.StarExpr:
				through(e.X)
			}
		}
		write := func(e ast.Expr) {
			if sel, ok := ast.Unparen(e).(*ast.SelectorExpr); ok {
				how[sel.Sel] = written
				through(sel.X)
			} else {
				through(e)
			}
		}
		for _, d := range file.Decls {
			self := ""
			if fd, ok := d.(*ast.FuncDecl); ok && pkg.Info.Defs[fd.Name] != nil {
				self = site(ix.fset, pkg.Info.Defs[fd.Name])
			}
			ast.Inspect(d, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						write(lhs)
					}
				case *ast.IncDecStmt:
					write(n.X)
				case *ast.UnaryExpr:
					if n.Op == token.AND {
						through(n.X)
					}
				case *ast.BinaryExpr:
					if n.Op == token.EQL || n.Op == token.NEQ {
						ix.compared(pkg.Info.TypeOf(n.X))
					}
				case *ast.CompositeLit:
					st, _ := pkg.Info.TypeOf(n).Underlying().(*types.Struct)
					for i, elt := range n.Elts {
						if kv, ok := elt.(*ast.KeyValueExpr); ok {
							if id, ok := kv.Key.(*ast.Ident); ok {
								how[id] = written
							}
						} else if st != nil {
							ix.noteField(st.Field(i), test, written)
						}
					}
				case *ast.Ident:
					switch obj := pkg.Info.Uses[n].(type) {
					case *types.Func:
						if obj.Pkg() != nil {
							if k := site(ix.fset, obj); k != self {
								ix.noteRef(k, test)
							}
						}
					case *types.Var:
						if obj.IsField() {
							ix.noteField(obj, test, how[n])
						}
					}
				}
				return true
			})
		}
	}
}

func (ix *repoIndex) noteRef(key string, test bool) *use {
	u := ix.decls[key]
	if u == nil {
		return nil
	}
	if test {
		u.fromTest = true
	} else {
		u.fromCode = true
	}
	return u
}

func (ix *repoIndex) noteField(v *types.Var, test bool, how int) {
	u := ix.noteRef(site(ix.fset, v), test)
	if u == nil {
		return
	}
	if how != written {
		u.read = true
	}
	if !test && how != 0 {
		u.codeWrite = u.codeWrite || how == written
		u.codeSet = true
	}
}

// compared marks read every field of a struct that is compared with == or !=
// or is a map key: equality reads them all.
func (ix *repoIndex) compared(t types.Type) {
	if t == nil {
		return
	}
	switch u := t.Underlying().(type) {
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if d := ix.decls[site(ix.fset, u.Field(i))]; d != nil {
				d.read = true
			}
			ix.compared(u.Field(i).Type())
		}
	case *types.Array:
		ix.compared(u.Elem())
	}
}

// find returns the indexed declarations pred holds for, sorted by position.
func (ix *repoIndex) find(pred func(*use) bool) []*use {
	var out []*use
	for _, u := range ix.decls {
		if pred(u) {
			out = append(out, u)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].pos.String() < out[j].pos.String() })
	return out
}

// unreachable: functions nothing references, not even a test.
func (ix *repoIndex) unreachable() []*use {
	return ix.find(func(u *use) bool {
		return !u.field && !u.fromCode && !u.fromTest && !ix.ifaceMethods[u.method]
	})
}

// testOnly: functions only _test.go files reference.
func (ix *repoIndex) testOnly() []*use {
	return ix.find(func(u *use) bool {
		return !u.field && !u.fromCode && u.fromTest && !ix.ifaceMethods[u.method]
	})
}

// writeOnly: fields non-test code writes and nothing reads.
func (ix *repoIndex) writeOnly() []*use {
	return ix.find(func(u *use) bool { return u.field && u.codeWrite && !u.read && !u.tagged })
}

// unturned: Config and Options fields no non-test code sets.
func (ix *repoIndex) unturned() []*use {
	return ix.find(func(u *use) bool { return u.knob && !u.codeSet })
}

var repoIndexOnce = sync.OnceValues(func() (*repoIndex, error) {
	repo, err := loadRepo()
	if err != nil {
		return nil, err
	}
	return newRepoIndex(repo.l.Fset, repo.pkgs), nil
})

// enforce fails the test on every finding allowed does not name, on every
// entry of allowed that is no longer a finding, and on an entry with no
// reason.
func enforce(t *testing.T, found []*use, allowed map[string]string, allowName, what string) {
	t.Helper()
	reported := map[string]bool{}
	for _, u := range found {
		reported[u.name] = true
		if _, ok := allowed[u.name]; !ok {
			t.Errorf("%s: %s %s: delete it, or name it in %s with the reason it stays", u.pos, u.name, what, allowName)
		}
	}
	for name, reason := range allowed {
		if !reported[name] {
			t.Errorf("%s names %s, which is no longer %s or is gone: drop the entry", allowName, name, what)
		}
		if strings.TrimSpace(reason) == "" {
			t.Errorf("%s names %s with no reason", allowName, name)
		}
	}
}

func repoIndexOrFatal(t *testing.T) *repoIndex {
	t.Helper()
	ix, err := repoIndexOnce()
	if err != nil {
		t.Fatal(err)
	}
	return ix
}

// unreachableAllowed names the functions TestNoUnreachableFuncs lets stand
// although nothing references them, each with the reason it stays.
var unreachableAllowed = map[string]string{
	"griphon/internal/sim.eventQueue.Pop": "container/heap.Interface, not among the interfaces read: heap.Pop calls it",
}

// TestNoUnreachableFuncs: dead code fails the build. Every function or method
// declared in a non-test file of the module must be referenced from somewhere
// in it other than its own body — another function, a test, a method value.
// Exempt are main and init, the public API (exported names of package
// griphon), methods that may be reached through an interface (by name: any
// interface declared in the module or in fmt, io, sort, encoding/json,
// net/http, plus error), and unreachableAllowed.
func TestNoUnreachableFuncs(t *testing.T) {
	enforce(t, repoIndexOrFatal(t).unreachable(), unreachableAllowed, "unreachableAllowed",
		"is referenced by nothing, not even a test")
}

// testOnlyAllowed names the functions TestNoTestOnlyCode lets stand although
// only tests reference them, each with the reason it stays.
var testOnlyAllowed = map[string]string{
	"griphon/internal/optics.IntersectFree":                   "reference: the equivalence test holds Plant.ContinuityChannels to this slice intersection",
	"griphon/internal/ems.Latencies.WavelengthSetupMean":      "reference: the closed-form serial setup mean the measured Table 2 distributions are checked against",
	"griphon/internal/ems.Latencies.WavelengthSetupGraphMean": "reference: the closed-form graph-choreography setup mean measured setups are checked against",
	"griphon/internal/ems.Latencies.WavelengthTeardownMean":   "reference: the closed-form teardown mean measured teardowns are checked against",
	"griphon/internal/core.Controller.captureState":           "reference: the whole-state value the streamed snapshot is held byte-equal to",
	"griphon/internal/core.streamState":                       "reference: streams a captured state through the snapshot appenders for the byte-equality tests",
	"griphon/internal/journal.appendFrame":                    "reference: frames raw records the way Store.Write does, for the recovery tests' hand-built segments",
	"griphon/internal/analysis.All":                           "linter entry point: TestRepoIsClean runs the suite it lists",
	"griphon/internal/analysis/driver.Load":                   "linter entry point: loads the module for TestRepoIsClean and the repo checks",
	"griphon/internal/analysis/analysistest.Run":              "linter entry point: runs an analyzer over its fixtures",
	"griphon/internal/ems.Manager.InjectFailures":             "seam: tests substitute scripted EMS failures for the fault model",
	"griphon/internal/topo.Ring":                              "test topology builder used by other packages' tests",
	"griphon/internal/topo.PathVia":                           "test topology builder used by other packages' tests",
	"griphon/bench.renderScript":                              "bench/ changes only with a benchmark change",
}

// TestNoTestOnlyCode: code only tests reach fails the build. A function or
// method declared in a non-test file must be referenced by non-test code
// (commands and examples count), under the exemptions of
// TestNoUnreachableFuncs. A test that needs to reach state reads it directly.
func TestNoTestOnlyCode(t *testing.T) {
	enforce(t, repoIndexOrFatal(t).testOnly(), testOnlyAllowed, "testOnlyAllowed",
		"is referenced only by tests")
}

// writeOnlyAllowed names the fields TestNoWriteOnlyFields lets stand although
// nothing reads them, each with the reason it stays.
var writeOnlyAllowed = map[string]string{}

// TestNoWriteOnlyFields: state nothing reads fails the build. A field that
// non-test code writes must be read somewhere — a test counts. A field with a
// struct tag, or of a struct that is compared or is a map key, is read.
func TestNoWriteOnlyFields(t *testing.T) {
	enforce(t, repoIndexOrFatal(t).writeOnly(), writeOnlyAllowed, "writeOnlyAllowed",
		"is written and never read")
}

// unturnedAllowed names the knobs TestNoUnturnedKnobs lets stand although no
// non-test code sets them, each with the reason it stays.
var unturnedAllowed = map[string]string{
	"griphon/internal/core.Config.Latencies":      "seam: choreography tests substitute a flat EMS latency table for ems.Default",
	"griphon/internal/core.Config.FXCClientPorts": "seam: coverage tests shrink the cross-connect to one port to exhaust it",
	"griphon/internal/core.Config.FXCLinePorts":   "seam: coverage tests shrink the cross-connect to one port to exhaust it",
}

// TestNoUnturnedKnobs: a knob nobody turns fails the build. Every field of a
// struct named Config, Options, *Config or *Options must be set by non-test
// code: assigned, written in a literal, written through a nested selector, or
// its address taken.
func TestNoUnturnedKnobs(t *testing.T) {
	enforce(t, repoIndexOrFatal(t).unturned(), unturnedAllowed, "unturnedAllowed",
		"is set by no non-test code")
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

// TestRepoChecksReport: the reference-index checks, pointed at a fixture with
// one write-only field, one knob nothing sets and one function only its test
// calls, report exactly those three, and neither the map-key struct nor the
// knob set through a nested selector.
func TestRepoChecksReport(t *testing.T) {
	l, err := driver.LoadIndex(".", []string{"testing"})
	if err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob("testdata/repocheck/*.go")
	if err != nil || len(files) != 2 {
		t.Fatalf("want the fixture and its test, have %q (%v)", files, err)
	}
	pkg, err := l.CheckFiles("example/fixture", files, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatal(pkg.TypeErrors)
	}
	ix := newRepoIndex(l.Fset, []*driver.Package{pkg})
	for check, want := range map[string]struct {
		found []*use
		name  string
	}{
		"unreachable": {ix.unreachable(), ""},
		"testOnly":    {ix.testOnly(), "example/fixture.onlyTested"},
		"writeOnly":   {ix.writeOnly(), "example/fixture.counter.hits"},
		"unturned":    {ix.unturned(), "example/fixture.Config.Unturned"},
	} {
		var names []string
		for _, u := range want.found {
			names = append(names, u.name)
		}
		if got := strings.Join(names, " "); got != want.name {
			t.Errorf("%s reports %q, want %q", check, got, want.name)
		}
	}
}
