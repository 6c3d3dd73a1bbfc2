package analysis

import (
	"go/ast"
	"strconv"
)

// simPkg is the one package allowed to touch the wall clock and the global
// math/rand source: the virtual-time kernel itself.
const simPkg = "griphon/internal/sim"

// wallClockFuncs are the package-level time functions that read or wait on
// the wall clock. time.Duration arithmetic and the unit constants are fine —
// sim.Duration is an alias of time.Duration precisely so latencies read
// naturally — but sampling the host clock breaks the determinism that makes
// TestTraceTimeline's nanosecond-exact restoration phases (and bit-identical
// replays of a simulated month) possible.
var wallClockFuncs = map[string]bool{
	"Now":       true,
	"Sleep":     true,
	"After":     true,
	"AfterFunc": true,
	"Tick":      true,
	"NewTicker": true,
	"NewTimer":  true,
	"Since":     true,
	"Until":     true,
}

// bannedRandImports are the global-source random packages. Every kernel owns
// one seeded sim.Rand; package-global rand would make runs depend on import
// order and process state.
var bannedRandImports = map[string]bool{
	"math/rand":    true,
	"math/rand/v2": true,
}

// Wallclock enforces virtual-time determinism: no wall-clock reads or global
// randomness outside internal/sim.
var Wallclock = &Analyzer{
	Name: "wallclock",
	Run:  runWallclock,
}

func runWallclock(pass *Pass) error {
	if PathIsOrUnder(pass.Pkg.Path(), simPkg) {
		return nil
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			path, err := strconv.Unquote(imp.Path.Value)
			if err != nil {
				continue
			}
			if bannedRandImports[path] {
				pass.Reportf(imp.Pos(),
					"import of %s outside %s: use the kernel's seeded sim.Rand "+
						"(k.Rand()) so runs stay replayable", path, simPkg)
			}
		}
		ast.Inspect(f, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			fn := funcFromUse(pass.TypesInfo, sel.Sel, "time")
			if fn == nil || !wallClockFuncs[fn.Name()] {
				return true
			}
			pass.Reportf(sel.Pos(),
				"time.%s reads the wall clock outside %s: use the sim.Kernel "+
					"virtual clock (k.Now, k.After) or sim.NewStopwatch for "+
					"operator-facing wall timings", fn.Name(), simPkg)
			return true
		})
	}
	return nil
}
