// Package analysistest runs one analyzer over a fixture package and checks
// its diagnostics against `want` expectations embedded in the fixture source,
// in the style of golang.org/x/tools/go/analysis/analysistest (which is
// deliberately not imported — see the analysis package doc).
//
// A fixture is a directory of .go files under testdata. An expectation is a
// comment on the line the diagnostic is reported at:
//
//	time.Sleep(d) // want `time\.Sleep reads the wall clock`
//
// The payload is one or more regular expressions, each backquoted or
// double-quoted, matched against the diagnostic message. When the flagged
// construct is itself a line comment (the suppress analyzer's fixtures), a
// block comment on the same line carries the expectation instead:
//
//	/* want `bare nolint suppression` */ //nolint:errcheck
//
// Every diagnostic must match an expectation on its exact line, and every
// expectation must be matched by a diagnostic; //lint:allow suppressions are
// honored exactly as when the repository itself is checked (driver.Analyze
// applies them), so negative fixtures can exercise them.
//
// Fixtures are type-checked for real — against the repository's own packages
// (griphon/internal/obs, .../inventory, .../ems) and the standard library —
// so analyzers see the same go/types world they see in production. The
// package path the fixture is checked under is the caller's choice, which is
// how path-scoped exemptions (internal/sim for wallclock, internal/core for
// emslayer) get both sides tested from the same analyzer code.
package analysistest

import (
	"fmt"
	"go/ast"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"testing"

	"griphon/internal/analysis"
	"griphon/internal/analysis/driver"
)

// sharedLoader indexes export data once per test binary: the go list walk
// covers every repository package plus the std packages fixtures import.
var (
	loaderOnce sync.Once
	loader     *driver.Loader
	loaderErr  error
)

func sharedLoader(t *testing.T) *driver.Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loader, loaderErr = driver.LoadIndex(".", []string{
			"griphon/...", "time", "math/rand", "math/rand/v2", "errors",
			"sort", "slices", "sync", "encoding/json",
		})
	})
	if loaderErr != nil {
		t.Fatalf("analysistest: indexing packages: %v", loaderErr)
	}
	return loader
}

// Run type-checks the fixture directory as a package imported as pkgPath,
// runs the analyzer (with //lint:allow suppression applied), and compares
// diagnostics against the fixture's want expectations.
func Run(t *testing.T, a *analysis.Analyzer, dir, pkgPath string) {
	t.Helper()
	l := sharedLoader(t)

	files, err := filepath.Glob(filepath.Join(dir, "*.go"))
	if err != nil || len(files) == 0 {
		t.Fatalf("analysistest: no fixture files in %s", dir)
	}
	sort.Strings(files)
	pkg, err := l.CheckFiles(pkgPath, files, nil)
	if err != nil {
		t.Fatalf("analysistest: %s: %v", dir, err)
	}
	for _, terr := range pkg.TypeErrors {
		t.Errorf("analysistest: fixture does not type-check: %v", terr)
	}
	if t.Failed() {
		t.FailNow()
	}

	diags, err := driver.Analyze(l.Fset, pkg, []*analysis.Analyzer{a})
	if err != nil {
		t.Fatalf("analysistest: %s: %v", a.Name, err)
	}

	wants := expectations(t, l, pkg.Files)
	for _, d := range diags {
		if !claim(wants, d.Position.Filename, d.Position.Line, d.Message) {
			t.Errorf("%s: unexpected diagnostic: %s", d.Position, d.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: no diagnostic matched `%s`", w.file, w.line, w.re)
		}
	}
}

// expectation is one parsed want pattern, anchored to a file line.
type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// claim marks the first unmatched expectation covering (file, line, msg).
func claim(wants []*expectation, file string, line int, msg string) bool {
	for _, w := range wants {
		if !w.matched && w.file == file && w.line == line && w.re.MatchString(msg) {
			w.matched = true
			return true
		}
	}
	return false
}

// wantArgRE matches one backquoted or double-quoted pattern argument.
var wantArgRE = regexp.MustCompile("`[^`]*`|\"(?:[^\"\\\\]|\\\\.)*\"")

// expectations collects every want comment in the fixture files.
func expectations(t *testing.T, l *driver.Loader, files []*ast.File) []*expectation {
	t.Helper()
	var out []*expectation
	for _, f := range files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				body, ok := commentBody(c.Text)
				if !ok {
					continue
				}
				payload, ok := strings.CutPrefix(strings.TrimSpace(body), "want ")
				if !ok {
					continue
				}
				pos := l.Fset.Position(c.Pos())
				args := wantArgRE.FindAllString(payload, -1)
				if len(args) == 0 {
					t.Fatalf("%s: want comment with no pattern: %s", pos, c.Text)
				}
				for _, arg := range args {
					pat, err := unquoteArg(arg)
					if err == nil {
						var re *regexp.Regexp
						re, err = regexp.Compile(pat)
						if err == nil {
							out = append(out, &expectation{file: pos.Filename, line: pos.Line, re: re})
							continue
						}
					}
					t.Fatalf("%s: bad want pattern %s: %v", pos, arg, err)
				}
			}
		}
	}
	return out
}

// commentBody strips the comment markers, reporting ok=false for comments
// that cannot carry an expectation.
func commentBody(text string) (string, bool) {
	if body, ok := strings.CutPrefix(text, "//"); ok {
		return body, true
	}
	if body, ok := strings.CutPrefix(text, "/*"); ok {
		return strings.TrimSuffix(body, "*/"), true
	}
	return "", false
}

func unquoteArg(arg string) (string, error) {
	if strings.HasPrefix(arg, "`") {
		return strings.Trim(arg, "`"), nil
	}
	s, err := strconv.Unquote(arg)
	if err != nil {
		return "", fmt.Errorf("unquoting %s: %w", arg, err)
	}
	return s, nil
}
