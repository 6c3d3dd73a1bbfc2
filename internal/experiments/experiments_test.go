package experiments

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

// TestAllExperimentsRun executes every registered experiment once and checks
// it produces printable output.
func TestAllExperimentsRun(t *testing.T) {
	for _, spec := range All {
		spec := spec
		t.Run(spec.ID, func(t *testing.T) {
			res, err := spec.Run(1)
			if err != nil {
				t.Fatalf("%s: %v", spec.ID, err)
			}
			if len(res.Tables) == 0 && len(res.Series) == 0 {
				t.Fatalf("%s produced no output", spec.ID)
			}
			out := res.String()
			if !strings.Contains(out, res.ID) {
				t.Errorf("%s output missing ID header", spec.ID)
			}
		})
	}
}

func TestFindExperiment(t *testing.T) {
	s, err := Find("table2")
	if err != nil || s.ID != "table2" {
		t.Fatalf("Find(table2) = %+v, %v", s, err)
	}
	if _, err := Find("nope"); err == nil {
		t.Error("unknown experiment found")
	}
	// The wall-clock A/B benchmarks live in bench/ now; TestAllExperimentsRun
	// runs the 21 that remain.
	for _, id := range []string{"serve", "tenants"} {
		if _, err := Find(id); err == nil {
			t.Errorf("%s is still an experiment ID", id)
		}
	}
	if len(All) != 21 {
		t.Errorf("%d experiments registered, want 21", len(All))
	}
}

// TestTable2MatchesPaperShape is the headline reproduction check: measured
// means within ~3 s of the paper's values and strictly increasing with hops.
func TestTable2MatchesPaperShape(t *testing.T) {
	res, err := Table2(1)
	if err != nil {
		t.Fatal(err)
	}
	paper := map[int]float64{1: 62.48, 2: 65.67, 3: 70.94}
	prev := 0.0
	for hops := 1; hops <= 3; hops++ {
		got := res.Values[key("hops%d_mean_s", hops)]
		want := paper[hops]
		if math.Abs(got-want) > 3 {
			t.Errorf("hops=%d measured %.2f s, paper %.2f s (>3 s off)", hops, got, want)
		}
		if got <= prev {
			t.Errorf("setup time not increasing at %d hops", hops)
		}
		prev = got
	}
}

func TestSetupTeardownShape(t *testing.T) {
	res, err := SetupTeardown(1)
	if err != nil {
		t.Fatal(err)
	}
	setup := res.Values["setup_mean_s"]
	teardown := res.Values["teardown_mean_s"]
	if setup < 58 || setup > 74 {
		t.Errorf("setup mean = %.1f s, paper says 60-70 s", setup)
	}
	if teardown < 8 || teardown > 12 {
		t.Errorf("teardown mean = %.1f s, paper says ~10 s", teardown)
	}
}

func TestTable1Ordering(t *testing.T) {
	res, err := Table1(1)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Values
	// 1+1 (ms) < automated restoration (min) < manual (hours).
	if !(v["oneplusone_outage_s"] < v["restore_outage_s"] && v["restore_outage_s"] < v["manual_outage_s"]) {
		t.Errorf("outage ordering broken: %+v", v)
	}
	if v["oneplusone_outage_s"] > 0.2 {
		t.Errorf("1+1 outage %.3f s, want ms", v["oneplusone_outage_s"])
	}
	if v["restore_outage_s"] < 30 || v["restore_outage_s"] > 300 {
		t.Errorf("restoration outage %.1f s, want minutes", v["restore_outage_s"])
	}
	if v["manual_outage_s"] < 4*3600 || v["manual_outage_s"] > 12*3600 {
		t.Errorf("manual outage %.0f s, want 4-12 h", v["manual_outage_s"])
	}
	// Maintenance: bridge-and-roll ms vs window hours.
	if v["roll_hit_s"] > 0.2 || v["window_hit_s"] < 3600 {
		t.Errorf("maintenance impact: roll %.3f s vs window %.0f s", v["roll_hit_s"], v["window_hit_s"])
	}
	// Setup minutes vs weeks.
	if v["setup_s"] > 120 {
		t.Errorf("setup %.0f s", v["setup_s"])
	}
}

func TestFig2PlacementCounts(t *testing.T) {
	res, err := Fig2(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["rejected"] != 1 {
		t.Errorf("rejected = %v, want 1 (the 500M request)", res.Values["rejected"])
	}
	if res.Values["composite"] < 2 {
		t.Errorf("composite = %v, want >=2 (12G, 25G, 50G)", res.Values["composite"])
	}
	if res.Values["otn_only"] < 3 || res.Values["dwdm_only"] < 2 {
		t.Errorf("placement counts: %+v", res.Values)
	}
}

func TestFig3CompositeSavesWavelengths(t *testing.T) {
	res, err := Fig3(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["composite_channel_links"] > res.Values["naive_channel_links"] {
		t.Errorf("composite used more channel-links (%v) than naive (%v)",
			res.Values["composite_channel_links"], res.Values["naive_channel_links"])
	}
}

func TestFig4TestbedShape(t *testing.T) {
	res, err := Fig4(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["deg3"] != 2 || res.Values["deg2"] != 2 {
		t.Errorf("ROADM degrees: %+v", res.Values)
	}
	if res.Values["pairs_connected"] != 3 {
		t.Errorf("pairs connected = %v, want 3", res.Values["pairs_connected"])
	}
}

func TestRestorationShape(t *testing.T) {
	res, err := Restoration(1)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Values
	manual := v["unprotected (manual repair)_mean_s"]
	auto := v["GRIPhoN automated restoration_mean_s"]
	oneone := v["1+1 protection_mean_s"]
	if !(oneone < auto && auto < manual) {
		t.Errorf("restoration ordering broken: 1+1=%.2f auto=%.2f manual=%.2f", oneone, auto, manual)
	}
	// Factors: manual is ~hundreds of times slower than automated
	// restoration, which is ~thousands of times slower than 1+1.
	if manual/auto < 50 {
		t.Errorf("manual/auto = %.1f, want >>1", manual/auto)
	}
	if auto/oneone < 100 {
		t.Errorf("auto/1+1 = %.1f, want >>1", auto/oneone)
	}
}

func TestBridgeRollShape(t *testing.T) {
	res, err := BridgeRoll(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["roll_hit_s"] > 0.1 {
		t.Errorf("roll hit %.3f s, want ~25 ms", res.Values["roll_hit_s"])
	}
	if res.Values["unplanned_hit_s"] < 30 {
		t.Errorf("unplanned hit %.1f s, want minutes", res.Values["unplanned_hit_s"])
	}
}

func TestBlockingPoolingGain(t *testing.T) {
	res, err := Blocking(1)
	if err != nil {
		t.Fatal(err)
	}
	// At every load, shared <= dedicated (trunking gain), and blocking is
	// monotone-ish in load for each design: check endpoints.
	for _, load := range []string{"1", "4", "8", "12"} {
		s := res.Values["shared_"+load]
		d := res.Values["dedicated_"+load]
		if s > d+0.02 {
			t.Errorf("load %s: shared blocking %.3f > dedicated %.3f", load, s, d)
		}
	}
	if res.Values["shared_12"] <= res.Values["shared_1"] {
		t.Errorf("shared blocking not increasing with load: %v vs %v",
			res.Values["shared_1"], res.Values["shared_12"])
	}
}

func TestBulkOrdering(t *testing.T) {
	res, err := Bulk(1)
	if err != nil {
		t.Fatal(err)
	}
	v := res.Values
	if !(v["bod_s"] < v["storeforward_s"] && v["storeforward_s"] <= v["leftover_s"]+3600 && v["leftover_s"] < v["static_order_s"]) {
		t.Errorf("bulk ordering broken: %+v", v)
	}
	// Store-and-forward must beat direct end-to-end by a useful margin
	// when the hops' free windows are phase-shifted.
	if v["storeforward_s"] >= v["leftover_s"] {
		t.Errorf("store-and-forward (%v s) did not beat direct (%v s)", v["storeforward_s"], v["leftover_s"])
	}
	// BoD: 50 TB at 40G is ~2.8 h plus a minute of setup.
	if v["bod_s"] < 9000 || v["bod_s"] > 12000 {
		t.Errorf("BoD completion %.0f s, want ~10100 s", v["bod_s"])
	}
	// Static order: dominated by three weeks.
	if v["static_order_s"] < 21*24*3600 {
		t.Errorf("static order %.0f s, want > 3 weeks", v["static_order_s"])
	}
}

func TestOTNRestoreShape(t *testing.T) {
	res, err := OTNRestore(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["otn_mean_s"] >= 1 {
		t.Errorf("OTN shared-mesh mean %.3f s, want sub-second", res.Values["otn_mean_s"])
	}
	if res.Values["dwdm_mean_s"] < 30 {
		t.Errorf("DWDM restoration mean %.1f s, want minutes", res.Values["dwdm_mean_s"])
	}
}

func TestRegroomShape(t *testing.T) {
	res, err := Regroom(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["moved"] != 1 {
		t.Error("regroom did not move")
	}
	if res.Values["after_hops"] >= res.Values["before_hops"] {
		t.Errorf("regroom did not shorten the path: %v -> %v",
			res.Values["before_hops"], res.Values["after_hops"])
	}
	if res.Values["hit_s"] > 0.1 {
		t.Errorf("regroom hit %.3f s", res.Values["hit_s"])
	}
}

func TestRWAAblationShape(t *testing.T) {
	res, err := RWAAblation(1)
	if err != nil {
		t.Fatal(err)
	}
	// Every policy/k combination must carry a healthy number of demands;
	// relative ordering between k values is a finding, not an invariant
	// (detours burn spectrum under saturation).
	for _, pol := range []string{"first-fit", "most-used", "least-used", "random"} {
		for _, kk := range []string{"_k1", "_k4"} {
			if res.Values[pol+kk] < 20 {
				t.Errorf("%s%s carried only %v demands", pol, kk, res.Values[pol+kk])
			}
		}
	}
	// Packing gain: first-fit beats random assignment at k=1.
	if res.Values["first-fit_k1"] < res.Values["random_k1"] {
		t.Errorf("first-fit (%v) carried less than random (%v)",
			res.Values["first-fit_k1"], res.Values["random_k1"])
	}
}

func key(format string, args ...any) string {
	return fmt.Sprintf(format, args...)
}

func TestPlanningMeetsTarget(t *testing.T) {
	res, err := Planning(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["measured_blocking"] > res.Values["target"]*2 {
		t.Errorf("measured blocking %.4f far exceeds target %.4f",
			res.Values["measured_blocking"], res.Values["target"])
	}
	// Sub-linear pool growth: doubling demand twice should need less than
	// 4x the transponders.
	if res.Values["ots_y4"] >= 4*res.Values["ots_y0"] {
		t.Errorf("pool growth not sub-linear: %v -> %v", res.Values["ots_y0"], res.Values["ots_y4"])
	}
	if res.Values["ots_y4"] <= res.Values["ots_y0"] {
		t.Error("pool did not grow with demand")
	}
}

func TestDefragPacksSpectrum(t *testing.T) {
	res, err := Defrag(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["moved"] < 1 {
		t.Error("defrag moved nothing; churn did not fragment?")
	}
	if res.Values["after_max"] > res.Values["before_max"] {
		t.Errorf("defrag raised the max channel: %v -> %v",
			res.Values["before_max"], res.Values["after_max"])
	}
	if res.Values["after_fit"] < res.Values["before_fit"] {
		t.Errorf("defrag reduced probe fit: %v -> %v",
			res.Values["before_fit"], res.Values["after_fit"])
	}
}

// TestTraceTimeline is the tracing subsystem's acceptance check: the
// restoration phases reconstructed from the trace must tile the outage, so
// their durations sum (exactly — one virtual clock, no rounding) to both the
// op:restore span and the end-to-end restoration latency the connection
// record reports.
func TestTraceTimeline(t *testing.T) {
	res, err := Trace(1)
	if err != nil {
		t.Fatal(err)
	}
	total := res.Values["restore_total_s"]
	sum := res.Values["phase_sum_s"]
	outage := res.Values["outage_s"]
	if total <= 0 {
		t.Fatalf("op:restore duration = %v s", total)
	}
	const eps = 1e-9 // one virtual nanosecond
	if diff := sum - total; diff > eps || diff < -eps {
		t.Errorf("phases sum to %v s but op:restore spans %v s", sum, total)
	}
	if diff := total - outage; diff > eps || diff < -eps {
		t.Errorf("op:restore spans %v s but the connection saw %v s of outage", total, outage)
	}
	// DWDM restoration lands in the minutes range (localization + full
	// lightpath re-setup), as the restoration experiment also reports.
	if total < 30 || total > 600 {
		t.Errorf("restoration latency = %v s, want minutes", total)
	}
	if res.Values["spans"] < 20 {
		t.Errorf("spans = %v, want a full setup+restore choreography", res.Values["spans"])
	}
}

func TestScaleShape(t *testing.T) {
	if testing.Short() {
		t.Skip("scale experiment in -short mode")
	}
	res, err := Scale(1)
	if err != nil {
		t.Fatal(err)
	}
	if res.Values["completed"] < 500 {
		t.Errorf("completed = %v, want a month of churn", res.Values["completed"])
	}
	if res.Values["restored"] < 1 {
		t.Error("no automated restorations during the storm")
	}
	if res.Values["stranded"] != 0 {
		t.Errorf("stranded = %v after repairs", res.Values["stranded"])
	}
	// Grid paths are long; setup still lands in minutes, scaling with
	// hop count as Table 2 predicts.
	if res.Values["mean_setup_s"] < 70 || res.Values["mean_setup_s"] > 150 {
		t.Errorf("mean setup = %v s", res.Values["mean_setup_s"])
	}
}
