package analysis_test

import (
	"path/filepath"
	"regexp"
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

// TestRepoIsClean is the linter: every analyzer over every package of the
// module, test files included. `go test ./...` fails on a finding.
func TestRepoIsClean(t *testing.T) {
	l, pkgs, err := driver.Load("../..", []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s does not type-check, so its findings cannot be trusted: %v", pkg.Path, terr)
		}
	}
	findings, err := check(l, pkgs)
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
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
