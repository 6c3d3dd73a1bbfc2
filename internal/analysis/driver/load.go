// Package driver loads and type-checks Go packages for the analyzers in
// internal/analysis using only the standard library and the go command — no
// golang.org/x/tools dependency, so the suite runs in hermetic build
// environments with an empty module cache. It has two callers, both tests:
// analysis_test.TestRepoIsClean loads the repository itself, analysistest
// loads fixture packages.
//
// Loading works the way the real analysis drivers do under the hood:
// `go list -e -export -deps -test -json` enumerates every package in the
// build graph and compiles export data for each into the build cache; the
// driver then parses each target package's source and type-checks it with a
// gc-export-data importer (importer.ForCompiler with a lookup function), so
// dependencies resolve from compiled summaries rather than from source.
package driver

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"

	"griphon/internal/analysis"
)

// listPkg is the subset of `go list -json` output the driver consumes.
type listPkg struct {
	Dir        string
	ImportPath string
	Standard   bool
	DepOnly    bool
	Export     string
	GoFiles    []string
	CgoFiles   []string
	Imports    []string
	ImportMap  map[string]string
	Error      *struct{ Err string }
}

// Package is one loaded, type-checked package ready for analysis.
type Package struct {
	// Path is the normalized import path (test variants report the path of
	// the package under test).
	Path string
	// Files are the parsed sources, comments included.
	Files []*ast.File
	// Types is the type-checked package.
	Types *types.Package
	// Info is the type-checker's fact tables for Files.
	Info *types.Info
	// TypeErrors holds any (tolerated) type-check errors.
	TypeErrors []error
}

// Loader owns the file set and the package index shared by every
// type-check it performs.
type Loader struct {
	Fset *token.FileSet
	// index maps ImportPath (including test-variant spellings) to the list
	// entry, for export-data lookup.
	index map[string]*listPkg
	// targets are the non-dep packages matched by the load patterns, in
	// go list order.
	targets []*listPkg
}

// Load runs go list over the patterns and returns a loader plus the matched
// (non-dependency) packages, parsed and type-checked.
func Load(dir string, patterns []string) (*Loader, []*Package, error) {
	l := &Loader{Fset: token.NewFileSet(), index: map[string]*listPkg{}}
	if err := l.list(dir, patterns); err != nil {
		return nil, nil, err
	}
	var out []*Package
	for _, lp := range l.targets {
		pkg, err := l.check(lp)
		if err != nil {
			return nil, nil, fmt.Errorf("%s: %w", lp.ImportPath, err)
		}
		out = append(out, pkg)
	}
	return l, out, nil
}

// LoadIndex runs go list over the patterns to populate the export-data index
// without type-checking any matched package. CheckFiles can then type-check
// arbitrary source files — analysistest fixture packages in particular —
// against the indexed dependencies.
func LoadIndex(dir string, patterns []string) (*Loader, error) {
	l := &Loader{Fset: token.NewFileSet(), index: map[string]*listPkg{}}
	if err := l.list(dir, patterns); err != nil {
		return nil, err
	}
	return l, nil
}

// list populates the loader's index from one `go list` invocation.
func (l *Loader) list(dir string, patterns []string) error {
	args := append([]string{"list", "-e", "-export", "-deps", "-test", "-json"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return err
	}
	if err := cmd.Start(); err != nil {
		return fmt.Errorf("go list: %w", err)
	}
	dec := json.NewDecoder(stdout)
	for {
		var lp listPkg
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("go list output: %w", err)
		}
		p := lp
		l.index[p.ImportPath] = &p
		if !p.DepOnly && !p.Standard &&
			!strings.HasSuffix(p.ImportPath, ".test") && len(p.GoFiles) > 0 {
			l.targets = append(l.targets, &p)
		}
	}
	if err := cmd.Wait(); err != nil {
		return fmt.Errorf("go list: %w\n%s", err, stderr.String())
	}
	return nil
}

// check parses and type-checks one listed package.
func (l *Loader) check(lp *listPkg) (*Package, error) {
	var files []string
	for _, f := range append(append([]string{}, lp.GoFiles...), lp.CgoFiles...) {
		if !filepath.IsAbs(f) {
			f = filepath.Join(lp.Dir, f)
		}
		files = append(files, f)
	}
	return l.CheckFiles(analysis.NormalizePkgPath(lp.ImportPath), files, lp.ImportMap)
}

// CheckFiles parses the given files and type-checks them as a package with
// the given path. importMap (may be nil) translates source import strings to
// the ImportPath spellings in the loader's index — go list emits it for
// vendoring and test variants.
func (l *Loader) CheckFiles(pkgPath string, filenames []string, importMap map[string]string) (*Package, error) {
	var files []*ast.File
	for _, name := range filenames {
		f, err := parser.ParseFile(l.Fset, name, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
		Implicits:  map[ast.Node]types.Object{},
		Scopes:     map[ast.Node]*types.Scope{},
		Instances:  map[*ast.Ident]types.Instance{},
	}
	pkg := &Package{Path: pkgPath, Files: files, Info: info}
	conf := types.Config{
		Importer: l.importerFor(importMap),
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, err := conf.Check(pkgPath, l.Fset, files, info)
	if tpkg == nil {
		return nil, err
	}
	pkg.Types = tpkg
	return pkg, nil
}

// importerFor builds a gc-export-data importer whose lookup resolves import
// paths through the per-package import map and then the loader's index.
func (l *Loader) importerFor(importMap map[string]string) types.Importer {
	lookup := func(path string) (io.ReadCloser, error) {
		if mapped, ok := importMap[path]; ok {
			path = mapped
		}
		lp, ok := l.index[path]
		if !ok {
			return nil, fmt.Errorf("driver: no package %q in load graph", path)
		}
		if lp.Export == "" {
			msg := "no export data"
			if lp.Error != nil {
				msg = lp.Error.Err
			}
			return nil, fmt.Errorf("driver: package %q: %s", path, msg)
		}
		return os.Open(lp.Export)
	}
	return importer.ForCompiler(l.Fset, "gc", lookup)
}

// Analyze runs the analyzers over the package, applies //lint:allow
// suppressions, and returns the surviving diagnostics.
func Analyze(fset *token.FileSet, pkg *Package, analyzers []*analysis.Analyzer) ([]Diagnostic, error) {
	var out []Diagnostic
	for _, a := range analyzers {
		pass := &analysis.Pass{
			Fset:      fset,
			Files:     pkg.Files,
			Pkg:       pkg.Types,
			TypesInfo: pkg.Info,
		}
		var diags []analysis.Diagnostic
		pass.Report = func(d analysis.Diagnostic) { diags = append(diags, d) }
		if err := a.Run(pass); err != nil {
			return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.Path, err)
		}
		for _, d := range diags {
			if analysis.Suppressed(fset, pkg.Files, a.Name, d) {
				continue
			}
			out = append(out, Diagnostic{
				Analyzer: a.Name,
				Position: fset.Position(d.Pos),
				Message:  d.Message,
			})
		}
	}
	sortDiagnostics(out)
	return out, nil
}

// Diagnostic is one rendered finding.
type Diagnostic struct {
	Analyzer string
	Position token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s: %s", d.Position, d.Analyzer, d.Message)
}

func sortDiagnostics(ds []Diagnostic) {
	sort.SliceStable(ds, func(i, j int) bool { return diagLess(ds[i], ds[j]) })
}

func diagLess(a, b Diagnostic) bool {
	if a.Position.Filename != b.Position.Filename {
		return a.Position.Filename < b.Position.Filename
	}
	if a.Position.Line != b.Position.Line {
		return a.Position.Line < b.Position.Line
	}
	if a.Position.Column != b.Position.Column {
		return a.Position.Column < b.Position.Column
	}
	return a.Analyzer < b.Analyzer
}
