package main

import (
	"encoding/json"
	"io"
	"os"
	"reflect"
	"regexp"
	"testing"
)

// runCaptured runs the command with stdout redirected to a pipe and returns
// what it printed and its exit code.
func runCaptured(t *testing.T, args ...string) (string, int) {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	code := run(args)
	os.Stdout = saved
	w.Close()
	out, err := io.ReadAll(r)
	if err != nil {
		t.Fatal(err)
	}
	return string(out), code
}

// TestVetProtocolFlags pins what `go vet -vettool` probes before it hands the
// tool a vet.cfg, and that the flag set is closed.
func TestVetProtocolFlags(t *testing.T) {
	out, code := runCaptured(t, "-flags")
	if code != 0 {
		t.Fatalf("-flags exit = %d", code)
	}
	var flags []struct{ Name string }
	if err := json.Unmarshal([]byte(out), &flags); err != nil {
		t.Fatalf("-flags output is not JSON: %v\n%s", err, out)
	}
	var names []string
	for _, f := range flags {
		names = append(names, f.Name)
	}
	if want := []string{"github", "sarif", "V"}; !reflect.DeepEqual(names, want) {
		t.Errorf("-flags names = %v, want %v", names, want)
	}

	out, code = runCaptured(t, "-V=full")
	if code != 0 || !regexp.MustCompile(`^griphon-lint version \S+\n$`).MatchString(out) {
		t.Errorf("-V=full = %q (exit %d), want one version line", out, code)
	}

	if _, code = runCaptured(t, "-wallclock=false"); code != 1 {
		t.Errorf("unknown flag exit = %d, want 1", code)
	}
}
