package experiments

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"
)

var update = flag.Bool("update", false, "rewrite testdata/*.golden from the current code")

// wallRows matches scale's two wall-clock rows, the only output lines that
// differ between two runs of the same seed.
var wallRows = regexp.MustCompile(`(?m)^(wall time|events/sec \(wall\))( +).*$`)

// TestExperimentGoldens pins every experiment's printed output at seeds 1 and
// 2 byte for byte, so a refactor that claims to change no behaviour can show
// it. Run with -update to rewrite the files after an intended change.
func TestExperimentGoldens(t *testing.T) {
	for _, spec := range All {
		for _, seed := range []int64{1, 2} {
			spec, seed := spec, seed
			name := fmt.Sprintf("%s.seed%d", spec.ID, seed)
			t.Run(name, func(t *testing.T) {
				res, err := spec.Run(seed)
				if err != nil {
					t.Fatalf("%s: %v", spec.ID, err)
				}
				got := res.String()
				if spec.ID == "scale" {
					got = wallRows.ReplaceAllString(got, "$1$2<wall>")
				}
				golden := filepath.Join("testdata", name+".golden")
				if *update {
					if err := os.MkdirAll("testdata", 0o755); err != nil {
						t.Fatal(err)
					}
					if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
						t.Fatal(err)
					}
					return
				}
				want, err := os.ReadFile(golden)
				if err != nil {
					t.Fatalf("%v (run with -update to create it)", err)
				}
				if got != string(want) {
					t.Errorf("%s output moved from %s:\n got:\n%s\nwant:\n%s", spec.ID, golden, got, want)
				}
			})
		}
	}
}
