// Command griphon-lint runs GRIPhoN's domain-invariant analyzers across the
// repository: wallclock (virtual-time determinism), txnrollback (reservations
// carry rollbacks), emslayer (hardware is only reached through
// internal/core), metricname (instrument naming) and suppress (//lint:allow
// hygiene), plus the flow-sensitive suite built on the internal CFG layer —
// determinism (map order must not reach serialized output unsorted),
// journaled (durable mutations reach a journalCommit on every non-error
// path), leakpath (Txn claims cannot escape through an error return
// unsettled), spanpair (every tracer span ends on every path) and loopblock
// (no blocking operations in controller event-loop code). See DESIGN.md §9
// and §14 for each invariant.
//
// Usage:
//
//	griphon-lint [-sarif] [-github] [packages]
//
// With no packages, ./... is checked. Exit status is 0 when clean, 2 when
// diagnostics were reported, 1 on failure to load or analyze. -sarif emits a
// SARIF 2.1.0 log for code-scanning uploads; -github adds inline ::error
// workflow annotations on stderr.
//
// The binary is also a vet tool: it understands the go command's vet.cfg
// protocol (-V=full, -flags, and a single *.cfg argument), so the whole
// suite can run as
//
//	go vet -vettool=$(which griphon-lint) ./...
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"griphon/internal/analysis"
	"griphon/internal/analysis/driver"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("griphon-lint", flag.ContinueOnError)
	sarifOut := fs.Bool("sarif", false, "emit diagnostics as SARIF 2.1.0")
	githubOut := fs.Bool("github", false, "also emit GitHub ::error workflow annotations")

	// The go command probes its vet tool before handing it a vet.cfg:
	// `-V=full` must print a stable version line, `-flags` must describe
	// the supported flags as JSON.
	for _, a := range args {
		if a == "-V=full" || a == "--V=full" {
			return printVersion()
		}
		if a == "-flags" || a == "--flags" {
			return printFlags(fs)
		}
	}
	fs.Usage = func() {
		fmt.Fprintf(fs.Output(), "usage: griphon-lint [flags] [packages]\n\nanalyzers:\n")
		for _, a := range analysis.All() {
			fmt.Fprintf(fs.Output(), "  %-12s %s\n", a.Name, firstLine(a.Doc))
		}
		fmt.Fprintf(fs.Output(), "\nflags:\n")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return 1
	}

	suite := analysis.All()

	// Vet-tool mode: the go command passes exactly one *.cfg argument.
	rest := fs.Args()
	if len(rest) == 1 && strings.HasSuffix(rest[0], ".cfg") {
		return driver.RunUnit(os.Stderr, rest[0], suite)
	}

	patterns := rest
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	l, pkgs, err := driver.Load(".", patterns)
	if err != nil {
		fmt.Fprintf(os.Stderr, "griphon-lint: %v\n", err)
		return 1
	}
	// A package and its in-package test variant share source files; report
	// each finding once.
	seen := map[string]bool{}
	var all []driver.Diagnostic
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			fmt.Fprintf(os.Stderr, "griphon-lint: %s: type error: %v\n", pkg.Path, terr)
		}
		diags, err := driver.Analyze(l.Fset, pkg, suite)
		if err != nil {
			fmt.Fprintf(os.Stderr, "griphon-lint: %v\n", err)
			return 1
		}
		for _, d := range diags {
			key := fmt.Sprintf("%s|%s|%s", d.Position, d.Analyzer, d.Message)
			if !seen[key] {
				seen[key] = true
				all = append(all, d)
			}
		}
	}
	root, _ := os.Getwd()
	if *sarifOut {
		if err := driver.WriteSARIF(os.Stdout, root, suite, all); err != nil {
			fmt.Fprintf(os.Stderr, "griphon-lint: %v\n", err)
			return 1
		}
	} else {
		for _, d := range all {
			fmt.Printf("%s\n", d)
		}
	}
	if *githubOut {
		driver.WriteGitHubAnnotations(os.Stderr, root, all)
	}
	if len(all) > 0 {
		return 2
	}
	return 0
}

// printVersion emits the `name version id` line cmd/go's toolID parsing
// expects, with a content hash of the executable so rebuilt tools bust the
// vet action cache.
func printVersion() int {
	h := sha256.New()
	if exe, err := os.Executable(); err == nil {
		if f, err := os.Open(exe); err == nil {
			_, _ = io.Copy(h, f)
			f.Close()
		}
	}
	fmt.Printf("griphon-lint version griphon-%x\n", h.Sum(nil)[:12])
	return 0
}

// printFlags describes the flag set as the JSON list `go vet` consumes.
func printFlags(fs *flag.FlagSet) int {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var flags []jsonFlag
	fs.VisitAll(func(f *flag.Flag) {
		flags = append(flags, jsonFlag{Name: f.Name, Bool: true, Usage: f.Usage})
	})
	flags = append(flags, jsonFlag{Name: "V", Bool: false, Usage: "print version and exit"})
	data, err := json.MarshalIndent(flags, "", "\t")
	if err != nil {
		return 1
	}
	fmt.Println(string(data))
	return 0
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
