package experiments

import (
	"time"

	"griphon/internal/baseline"
	"griphon/internal/bw"
	"griphon/internal/core"
	"griphon/internal/metrics"
	"griphon/internal/sim"
	"griphon/internal/topo"
	"griphon/internal/traffic"
)

// Bulk compares completion times for a large inter-DC replication job under
// four regimes: a GRIPhoN BoD wavelength requested just for the transfer, an
// already-provisioned static 10G circuit's leftover capacity, a NetStitcher-
// style store-and-forward schedule over the same leftovers, and ordering a
// new static circuit today (weeks of lead time). This quantifies the paper's
// §1 motivation against its cited related work [22].
func Bulk(seed int64) (Result, error) {
	res := Result{ID: "bulk", Paper: "§1 motivation, NetStitcher comparison"}
	const sizeTB = 50.0
	sizeBytes := sizeTB * traffic.TB

	// --- GRIPhoN BoD: request a 40G wavelength, transfer, release ---
	k := sim.NewKernel(seed)
	ctrl, err := core.New(k, topo.Backbone(), core.Config{})
	if err != nil {
		return Result{}, err
	}
	conn, job, err := ctrl.Connect(core.Request{
		Customer: "bench", From: "DC-SEA", To: "DC-NYC", Rate: bw.Rate40G,
	})
	if err != nil {
		return Result{}, err
	}
	flow, err := traffic.NewFlow(k, sizeBytes)
	if err != nil {
		return Result{}, err
	}
	job.OnDone(func(err error) {
		if err == nil {
			flow.SetRate(conn.Rate)
		}
	})
	k.Run()
	if !flow.Completed() {
		return Result{}, job.Err()
	}
	bodTime := flow.Elapsed()

	// --- The static alternative: a 10G circuit chain SEA->CHI->NYC whose
	// leftover capacity follows diurnal interactive load (peak 80% busy,
	// trough 20%), with a time-zone phase shift between the two hops ---
	leftover := func(hop, slot int) float64 {
		t := sim.Time(slot) * sim.Time(time.Hour)
		frac := 1 - (0.2 + 0.6*traffic.Diurnal(t, 14+float64(hop)*6, 0)) // 0.2..0.8 busy
		return frac * float64(bw.Rate10G) * 3600                         // bits per hour-slot
	}
	chain := baseline.StoreForward{SlotLen: time.Hour, Hops: 2, Leftover: leftover, MaxSlots: 100000}

	// Direct end-to-end over the chain: only the simultaneous minimum of
	// both hops' leftovers is usable each hour.
	dres, err := chain.DirectOnly(sizeBytes)
	if err != nil {
		return Result{}, err
	}

	// Store-and-forward: buffer at the relay DC so each hop's leftovers
	// are used whenever they appear (NetStitcher's gain).
	sres, err := chain.Schedule(sizeBytes)
	if err != nil {
		return Result{}, err
	}

	// --- Ordering a new static circuit today ---
	static := baseline.OrderStatic(0, bw.Rate10G)
	stTime, err := static.TransferTime(0, sizeBytes)
	if err != nil {
		return Result{}, err
	}

	tb := metrics.NewTable("50 TB replication SEA->NYC: completion time by approach",
		"Approach", "Completion", "Notes")
	tb.Row("GRIPhoN BoD 40G wavelength", bodTime.Round(time.Minute).String(),
		"setup ~1 min, dedicated 40G, released after")
	tb.Row("static 10G chain, direct end-to-end leftovers", dres.Duration.String(),
		"only simultaneous free capacity on both hops counts")
	tb.Row("store-and-forward via relay DC (NetStitcher-style)", sres.Duration.String(),
		"buffers at the relay to use phase-shifted leftovers")
	tb.Row("order new static 10G today", stTime.Round(time.Hour).String(),
		"three-week provisioning lead time dominates")
	res.Tables = append(res.Tables, tb)

	res.value("bod_s", bodTime.Seconds())
	res.value("leftover_s", dres.Duration.Seconds())
	res.value("storeforward_s", sres.Duration.Seconds())
	res.value("static_order_s", stTime.Seconds())
	res.notef("BoD completes in hours; leftover/store-and-forward in days; new static line in weeks")
	return res, nil
}

// Regroom measures the re-grooming win of paper §4: a connection provisioned
// when only a long route existed is moved, almost hitlessly, onto a newly
// available short route, cutting propagation latency.
func Regroom(seed int64) (Result, error) {
	res := Result{ID: "regroom", Paper: "§4 network re-grooming"}

	k := sim.NewKernel(seed)
	ctrl, err := core.New(k, topo.Testbed(), core.Config{})
	if err != nil {
		return Result{}, err
	}
	// Only the long route exists at provisioning time.
	ctrl.Plant().SetLinkUp("I-IV", false)
	ctrl.Plant().SetLinkUp("I-III", false)
	conn, job, err := ctrl.Connect(core.Request{Customer: "bench", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	if err != nil {
		return Result{}, err
	}
	k.Run()
	if job.Err() != nil {
		return Result{}, job.Err()
	}
	beforePath := conn.Route()
	beforeKM := beforePath.KM(ctrl.Graph())

	// New routes become available (the network grew).
	ctrl.Plant().SetLinkUp("I-IV", true)
	ctrl.Plant().SetLinkUp("I-III", true)

	moved, rjob, err := ctrl.Regroom("bench", conn.ID)
	if err != nil {
		return Result{}, err
	}
	k.Run()
	if rjob.Err() != nil {
		return Result{}, rjob.Err()
	}
	afterPath := conn.Route()
	afterKM := afterPath.KM(ctrl.Graph())

	tb := metrics.NewTable("Re-grooming a 10G wavelength after a new route appears",
		"Metric", "Before", "After")
	tb.Row("path", beforePath.String(), afterPath.String())
	tb.Row("hops", beforePath.Hops(), afterPath.Hops())
	tb.Row("distance (km)", beforeKM, afterKM)
	tb.Row("propagation delay (ms)", beforeKM*4.9e-3, afterKM*4.9e-3)
	tb.Row("traffic hit", "-", conn.TotalOutage.Round(time.Millisecond).String())
	res.Tables = append(res.Tables, tb)

	res.value("moved", b2f(moved))
	res.value("before_hops", float64(beforePath.Hops()))
	res.value("after_hops", float64(afterPath.Hops()))
	res.value("hit_s", conn.TotalOutage.Seconds())
	res.notef("re-grooming uses bridge-and-roll, so the move costs ~25 ms, not a re-provisioning outage")
	return res, nil
}

func b2f(b bool) float64 {
	if b {
		return 1
	}
	return 0
}
