package analysis

import (
	"go/ast"
	"go/constant"
	"go/types"
	"regexp"
	"strings"
)

const obsPkg = "griphon/internal/obs"

// registryMethods maps the obs.Registry instrument constructors to the index
// of their name argument (always 0) and their kind for suffix rules.
var registryMethods = map[string]string{
	"Counter":       "counter",
	"CounterFunc":   "counter",
	"GaugeFunc":     "gauge",
	"Histogram":     "histogram",
	"HistogramFunc": "histogram",
}

var (
	metricNameRE = regexp.MustCompile(`^griphon_[a-z0-9]+(_[a-z0-9]+)*$`)
	labelKeyRE   = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
)

// histogramUnits are the unit suffixes a histogram name may end with.
// Everything this simulator observes is seconds (virtual, or wall time of
// real I/O), bytes, or the records one journal sync covered.
var histogramUnits = []string{"_seconds", "_bytes", "_records"}

// Metricname enforces the instrument naming scheme: names are compile-time
// string constants (so the /api/v1/metrics surface is greppable), prefixed
// griphon_, snake_case, counters end in _total, histograms carry a unit
// suffix, and gauges never masquerade as counters.
var Metricname = &Analyzer{
	Name: "metricname",
	Run:  runMetricname,
}

func runMetricname(pass *Pass) error {
	// The registry's own package (and its tests) exercises the instrument
	// mechanics with deliberately minimal names; the naming scheme governs
	// the product metrics registered everywhere else.
	if PathIsOrUnder(pass.Pkg.Path(), obsPkg) {
		return nil
	}
	for _, f := range pass.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			fn := calleeFunc(pass.TypesInfo, call)
			if fn == nil {
				return true
			}
			kind, ok := registryMethods[fn.Name()]
			if !ok || !methodOn(fn, obsPkg, "Registry", fn.Name()) {
				return true
			}
			if len(call.Args) == 0 {
				return true
			}
			checkMetricName(pass, call, fn.Name(), kind)
			checkLabelKeys(pass, call, fn.Name())
			return true
		})
	}
	return nil
}

func checkMetricName(pass *Pass, call *ast.CallExpr, method, kind string) {
	arg := call.Args[0]
	name, ok := constString(pass.TypesInfo, arg)
	if !ok {
		pass.Reportf(arg.Pos(),
			"instrument name passed to Registry.%s must be a string literal "+
				"(constant), not a computed value", method)
		return
	}
	if !metricNameRE.MatchString(name) {
		pass.Reportf(arg.Pos(),
			"instrument name %q must be griphon_-prefixed snake_case "+
				"(matching %s)", name, metricNameRE)
		return
	}
	switch kind {
	case "counter":
		if !strings.HasSuffix(name, "_total") {
			pass.Reportf(arg.Pos(),
				"counter %q must end in _total (Prometheus counter convention)", name)
		}
	case "gauge":
		if strings.HasSuffix(name, "_total") {
			pass.Reportf(arg.Pos(),
				"gauge %q must not end in _total: monotone values belong to "+
					"Counter/CounterFunc", name)
		}
	case "histogram":
		ok := false
		for _, u := range histogramUnits {
			if strings.HasSuffix(name, u) {
				ok = true
			}
		}
		if !ok {
			pass.Reportf(arg.Pos(),
				"histogram %q must end in a unit suffix (%s)",
				name, strings.Join(histogramUnits, ", "))
		}
	}
}

// checkLabelKeys validates the variadic "k1", "v1", ... tail: keys must be
// snake_case string constants. Values may be computed (layer names, states).
func checkLabelKeys(pass *Pass, call *ast.CallExpr, method string) {
	// The labels tail starts after (name, help) for Counter and the Func
	// variants (fn sits between), and after (name, help, buckets) for
	// Histogram. Rather than hard-coding positions, walk from the end: the
	// variadic tail is whatever trailing arguments are typed string — keys
	// at even offsets within that tail.
	sig, ok := pass.TypesInfo.Types[call.Fun].Type.(*types.Signature)
	if !ok || !sig.Variadic() || call.Ellipsis.IsValid() {
		return
	}
	fixed := sig.Params().Len() - 1
	if len(call.Args) <= fixed {
		return
	}
	tail := call.Args[fixed:]
	if len(tail)%2 != 0 {
		pass.Reportf(tail[0].Pos(),
			"Registry.%s label arguments must be key/value pairs (odd count)", method)
		return
	}
	for i := 0; i < len(tail); i += 2 {
		key, ok := constString(pass.TypesInfo, tail[i])
		if !ok {
			pass.Reportf(tail[i].Pos(),
				"Registry.%s label keys must be string literals", method)
			continue
		}
		if !labelKeyRE.MatchString(key) {
			pass.Reportf(tail[i].Pos(),
				"label key %q must be lower snake_case (matching %s)", key, labelKeyRE)
		}
	}
}

// constString returns the compile-time string value of e, if it has one.
func constString(info *types.Info, e ast.Expr) (string, bool) {
	tv, ok := info.Types[ast.Unparen(e)]
	if !ok || tv.Value == nil || tv.Value.Kind() != constant.String {
		return "", false
	}
	return constant.StringVal(tv.Value), true
}
