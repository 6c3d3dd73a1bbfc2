package baseline

import (
	"testing"
	"testing/quick"
	"time"

	"griphon/internal/bw"
	"griphon/internal/sim"
)

func TestOrderStaticLeadTime(t *testing.T) {
	c := OrderStatic(sim.Time(0), bw.Rate10G)
	if c.ProvisionedAt != sim.Time(StaticLeadTime) {
		t.Errorf("provisioned at %v, want %v", c.ProvisionedAt, StaticLeadTime)
	}
	// 1 TB at 10G = 800 s, plus three weeks of waiting.
	d, err := c.TransferTime(sim.Time(0), 1e12)
	if err != nil {
		t.Fatal(err)
	}
	want := StaticLeadTime + 800*time.Second
	if d != want {
		t.Errorf("transfer = %v, want %v", d, want)
	}
	// After provisioning there is no wait.
	d, err = c.TransferTime(sim.Time(30*24*time.Hour), 1e12)
	if err != nil {
		t.Fatal(err)
	}
	if d != 800*time.Second {
		t.Errorf("post-provision transfer = %v", d)
	}
}

func TestTransferTimeValidation(t *testing.T) {
	c := StaticCircuit{}
	if _, err := c.TransferTime(0, 100); err == nil {
		t.Error("zero-rate circuit accepted")
	}
	c = OrderStatic(0, bw.Rate10G)
	if _, err := c.TransferTime(0, 0); err == nil {
		t.Error("zero size accepted")
	}
}

func TestCostModelOrdering(t *testing.T) {
	c := DefaultCosts()
	km, regens := 1000.0, 0
	work := c.WavelengthMonthly(km, regens)
	oneplus := c.OnePlusOneMonthly(km, regens, 1500, 0)
	shared := c.SharedRestoreMonthly(km, regens, 0.25)
	// Table 1 economics: restoration via a shared pool is far less
	// expensive than 1+1, and costs more than an unprotected wavelength.
	if !(work < shared && shared < oneplus) {
		t.Errorf("cost ordering broken: work=%v shared=%v 1+1=%v", work, shared, oneplus)
	}
	if oneplus < 2*work {
		t.Errorf("1+1 (%v) should cost at least double a working path (%v)", oneplus, work)
	}
	// Regens add cost.
	if c.WavelengthMonthly(km, 2) <= work {
		t.Error("regens free")
	}
	// Negative share ratio clamps.
	if c.SharedRestoreMonthly(km, 0, -1) != work {
		t.Error("negative share ratio not clamped")
	}
}

func TestManualRestoreBounds(t *testing.T) {
	if ManualRestoreMin >= ManualRestoreMax {
		t.Error("manual restore bounds inverted")
	}
	if ManualRestoreMin != 4*time.Hour || ManualRestoreMax != 12*time.Hour {
		t.Error("manual restore bounds do not match the paper")
	}
}

func constantLeftover(bits float64) func(int, int) float64 {
	return func(int, int) float64 { return bits }
}

func TestStoreForwardConstantCapacity(t *testing.T) {
	sf := StoreForward{
		SlotLen:  time.Hour,
		Hops:     2,
		Leftover: constantLeftover(1e12), // 1 Tb per slot per hop
	}
	// 1 TB = 8e12 bits: 8 slots to leave the source, +1 pipeline fill.
	res, err := sf.Schedule(1e12)
	if err != nil {
		t.Fatal(err)
	}
	if res.Slots != 9 {
		t.Errorf("slots = %d, want 9", res.Slots)
	}
	if res.Duration != 9*time.Hour {
		t.Errorf("duration = %v", res.Duration)
	}
	if res.PeakBuffered <= 0 {
		t.Error("no buffering recorded on a 2-hop chain")
	}
}

func TestStoreForwardBeatsDirectWithPhaseShift(t *testing.T) {
	// Hop 0 has capacity in even slots, hop 1 in odd slots (time-zone
	// phase shift): direct transfers get zero end-to-end capacity in
	// every slot, store-and-forward pipelines through the buffer. This is
	// NetStitcher's core claim.
	leftover := func(hop, slot int) float64 {
		if (slot+hop)%2 == 0 {
			return 1e12
		}
		return 0
	}
	sf := StoreForward{SlotLen: time.Hour, Hops: 2, Leftover: leftover, MaxSlots: 1000}
	res, err := sf.Schedule(1e12)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sf.DirectOnly(1e12); err == nil {
		t.Fatal("direct transfer should never complete with anti-phased capacity")
	}
	if res.Slots > 20 {
		t.Errorf("store-and-forward took %d slots", res.Slots)
	}
}

func TestDirectOnlyMatchesWhenCapacityUniform(t *testing.T) {
	sf := StoreForward{SlotLen: time.Hour, Hops: 3, Leftover: constantLeftover(1e12)}
	d, err := sf.DirectOnly(1e12)
	if err != nil {
		t.Fatal(err)
	}
	if d.Slots != 8 {
		t.Errorf("direct slots = %d, want 8", d.Slots)
	}
	s, err := sf.Schedule(1e12)
	if err != nil {
		t.Fatal(err)
	}
	// Store-and-forward pays pipeline fill on a chain.
	if s.Slots < d.Slots {
		t.Errorf("SF (%d) beat direct (%d) under uniform capacity", s.Slots, d.Slots)
	}
}

func TestStoreForwardValidation(t *testing.T) {
	good := StoreForward{SlotLen: time.Hour, Hops: 1, Leftover: constantLeftover(1)}
	cases := []StoreForward{
		{SlotLen: time.Hour, Hops: 0, Leftover: constantLeftover(1)},
		{SlotLen: 0, Hops: 1, Leftover: constantLeftover(1)},
		{SlotLen: time.Hour, Hops: 1},
	}
	for i, sf := range cases {
		if _, err := sf.Schedule(100); err == nil {
			t.Errorf("case %d accepted", i)
		}
	}
	if _, err := good.Schedule(0); err == nil {
		t.Error("zero size accepted")
	}
	if _, err := good.DirectOnly(0); err == nil {
		t.Error("direct zero size accepted")
	}
	// Incompletable transfer errors out.
	dead := StoreForward{SlotLen: time.Hour, Hops: 1, Leftover: constantLeftover(0), MaxSlots: 10}
	if _, err := dead.Schedule(100); err == nil {
		t.Error("zero-capacity transfer completed")
	}
}

// Property: store-and-forward conserves data — it delivers everything and
// never takes longer than MaxSlots claims, and negative leftovers are
// treated as zero.
func TestStoreForwardConservationProperty(t *testing.T) {
	prop := func(size uint16, capSeed uint8) bool {
		bytes := float64(size%1000+1) * 1e9
		caps := []float64{1e10, 5e10, 1e11, -1e10}
		sf := StoreForward{
			SlotLen: time.Hour,
			Hops:    2,
			Leftover: func(hop, slot int) float64 {
				return caps[(hop+slot+int(capSeed))%len(caps)]
			},
			MaxSlots: 100000,
		}
		res, err := sf.Schedule(bytes)
		if err != nil {
			return false
		}
		return res.Slots > 0 && res.Duration == time.Duration(res.Slots)*time.Hour
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
