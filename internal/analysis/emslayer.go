package analysis

import (
	"go/ast"
	"strconv"
	"strings"
)

const emsPkg = "griphon/internal/ems"

// emsAllowed are the packages that may construct or enqueue EMS commands:
// the EMS layer itself and the controller core that orchestrates it. The
// paper's controller "never talks to hardware directly" (§2.2) — and in this
// codebase the inverse also holds: the device-model packages (rwa, optics,
// roadm, fxc, otn) never reach up into the management plane. Keeping the
// dependency one-directional is what lets the RWA engine stay a pure
// function and the EMS latency model stay swappable.
var emsAllowed = []string{
	"griphon/internal/core",
	emsPkg,
}

// Emslayer enforces the management-plane boundary: only internal/core and
// internal/ems may import the ems package, construct ems.Command values, or
// submit to an ems.Manager.
var Emslayer = &Analyzer{
	Name: "emslayer",
	Run:  runEmslayer,
}

func runEmslayer(pass *Pass) error {
	path := NormalizePkgPath(pass.Pkg.Path())
	for _, allowed := range emsAllowed {
		if PathIsOrUnder(path, allowed) {
			return nil
		}
	}
	for _, f := range pass.Files {
		for _, imp := range f.Imports {
			p, err := strconv.Unquote(imp.Path.Value)
			if err != nil || p != emsPkg {
				continue
			}
			pass.Reportf(imp.Pos(),
				"package %s must not import %s: the EMS layer is reached only "+
					"through internal/core (allowed: %s)",
				path, emsPkg, strings.Join(emsAllowed, ", "))
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.CompositeLit:
				// Constructing an ems.Command outside the management plane —
				// caught even when the type is reached without an import
				// (e.g. via a type alias).
				t := pass.TypesInfo.Types[n].Type
				if named, ok := namedType(t); ok &&
					named.Obj().Name() == "Command" &&
					named.Obj().Pkg() != nil && named.Obj().Pkg().Path() == emsPkg {
					pass.Reportf(n.Pos(),
						"package %s constructs ems.Command: EMS work is "+
							"submitted only by internal/core", path)
				}
			case *ast.CallExpr:
				fn := calleeFunc(pass.TypesInfo, n)
				for _, m := range []string{"Submit", "SubmitBatch", "InjectFailures"} {
					if methodOn(fn, emsPkg, "Manager", m) {
						pass.Reportf(n.Pos(),
							"package %s calls (*ems.Manager).%s: EMS queues are "+
								"driven only by internal/core", path, m)
					}
				}
				if fn != nil && fn.Name() == "NewManager" &&
					fn.Pkg() != nil && fn.Pkg().Path() == emsPkg {
					pass.Reportf(n.Pos(),
						"package %s constructs an ems.Manager: EMS sessions are "+
							"owned by internal/core", path)
				}
			}
			return true
		})
	}
	return nil
}
