package analysis

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// The one accepted suppression form is
//
//	//lint:allow <analyzer> <reason>
//
// placed on the flagged line or on the line immediately above it. Anything
// else — golangci-style //nolint tags in particular — is itself a diagnostic:
// an unexplained suppression is exactly the kind of silent convention decay
// this suite exists to stop.

const allowPrefix = "lint:allow"

// Allow is one parsed //lint:allow directive.
type Allow struct {
	// Analyzer is the suppressed analyzer's name.
	Analyzer string
	// Reason is the free-text justification (never empty for a valid
	// directive).
	Reason string
	// Line is the 1-based line the directive appears on.
	Line int
}

// KnownSuppressTargets lists the names //lint:allow may name: every analyzer
// in this suite plus external tools whose suppressions we standardize
// (errcheck, from the repo's earlier //nolint:errcheck comments). Names are
// spelled out rather than derived from All to avoid an initialization cycle
// with the Suppress analyzer itself.
func KnownSuppressTargets() map[string]bool {
	return map[string]bool{
		"determinism": true,
		"errcheck":    true,
		"emslayer":    true,
		"journaled":   true,
		"leakpath":    true,
		"loopblock":   true,
		"metricname":  true,
		"spanpair":    true,
		"suppress":    true,
		"txnrollback": true,
		"wallclock":   true,
	}
}

// parseAllow splits a comment's text into a directive, reporting ok=false if
// the comment is not a lint:allow directive at all. A directive with a
// missing analyzer or reason is returned with those fields empty; the
// suppress analyzer turns that into a diagnostic and the driver ignores it.
func parseAllow(text string) (analyzer, reason string, ok bool) {
	body, found := strings.CutPrefix(text, "//"+allowPrefix)
	if !found {
		return "", "", false
	}
	fields := strings.Fields(body)
	if len(fields) == 0 {
		return "", "", true
	}
	return fields[0], strings.Join(fields[1:], " "), true
}

// allowsInFile collects every well-formed //lint:allow directive in f,
// including malformed ones (empty Analyzer/Reason) so callers can validate.
func allowsInFile(fset *token.FileSet, f *ast.File) []Allow {
	var out []Allow
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			an, reason, ok := parseAllow(c.Text)
			if !ok {
				continue
			}
			out = append(out, Allow{
				Analyzer: an,
				Reason:   reason,
				Line:     fset.Position(c.Pos()).Line,
			})
		}
	}
	return out
}

// suppressedLines returns the set of lines on which diagnostics from the
// named analyzer are suppressed in f: a valid directive covers its own line
// and the line below it (for directives placed above a long statement).
func suppressedLines(fset *token.FileSet, f *ast.File, analyzer string, known map[string]bool) map[int]bool {
	lines := map[int]bool{}
	for _, a := range allowsInFile(fset, f) {
		if a.Analyzer != analyzer || a.Reason == "" || !known[a.Analyzer] {
			continue
		}
		lines[a.Line] = true
		lines[a.Line+1] = true
	}
	return lines
}

// Suppressed reports whether diag (from the named analyzer) is covered by a
// valid //lint:allow directive in files.
func Suppressed(fset *token.FileSet, files []*ast.File, analyzer string, diag Diagnostic) bool {
	known := KnownSuppressTargets()
	pos := fset.Position(diag.Pos)
	for _, f := range files {
		ff := fset.File(f.Pos())
		if ff == nil || ff.Name() != pos.Filename {
			continue
		}
		return suppressedLines(fset, f, analyzer, known)[pos.Line]
	}
	return false
}

// Suppress is the directive-hygiene analyzer: it reports every //nolint
// comment (any form) and every //lint:allow directive that names an unknown
// analyzer or omits a reason.
var Suppress = &Analyzer{
	Name: "suppress",
	Run:  runSuppress,
}

func runSuppress(pass *Pass) error {
	known := KnownSuppressTargets()
	for _, f := range pass.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				text := c.Text
				// Reject the whole golangci family: //nolint,
				// //nolint:errcheck // reason, // nolint:all, ...
				if strings.HasPrefix(strings.TrimSpace(strings.TrimPrefix(text, "//")), "nolint") {
					pass.Reportf(c.Pos(),
						"bare nolint suppression; use //lint:allow <analyzer> <reason>")
					continue
				}
				an, reason, ok := parseAllow(text)
				if !ok {
					continue
				}
				switch {
				case an == "":
					pass.Reportf(c.Pos(),
						"lint:allow needs an analyzer and a reason: //lint:allow <analyzer> <reason>")
				case !known[an]:
					pass.Reportf(c.Pos(),
						"lint:allow names unknown analyzer %q (known: %s)",
						an, strings.Join(sortedKeys(known), ", "))
				case reason == "":
					pass.Reportf(c.Pos(),
						"lint:allow %s needs a reason: //lint:allow %s <why this is safe>", an, an)
				}
			}
		}
	}
	return nil
}

func sortedKeys(m map[string]bool) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
