package optics

import (
	"testing"
	"testing/quick"

	"griphon/internal/bw"
	"griphon/internal/topo"
)

func TestSpectrumReserveRelease(t *testing.T) {
	s := NewSpectrum(4)
	if s.channels != 4 || s.Used() != 0 {
		t.Fatalf("fresh spectrum: channels=%d used=%d", s.channels, s.Used())
	}
	if err := s.Reserve(2, "conn1"); err != nil {
		t.Fatal(err)
	}
	if s.Owner(2) != "conn1" {
		t.Errorf("owner = %q", s.Owner(2))
	}
	if err := s.Reserve(2, "conn2"); err == nil {
		t.Error("double reserve accepted")
	}
	if err := s.Reserve(0, "x"); err == nil {
		t.Error("channel 0 accepted")
	}
	if err := s.Reserve(5, "x"); err == nil {
		t.Error("out-of-range channel accepted")
	}
	if err := s.Reserve(3, ""); err == nil {
		t.Error("empty owner accepted")
	}
	if err := s.Release(2); err != nil {
		t.Fatal(err)
	}
	if err := s.Release(2); err == nil {
		t.Error("double release accepted")
	}
	if s.Owner(2) != "" || s.Used() != 0 {
		t.Error("released channel not free")
	}
}

func TestSpectrumFreeUsedLists(t *testing.T) {
	s := NewSpectrum(5)
	s.Reserve(1, "a")
	s.Reserve(4, "b")
	used := s.UsedChannels()
	if len(used) != 2 || used[0] != 1 || used[1] != 4 {
		t.Errorf("used = %v", used)
	}
}

func TestIntersectFree(t *testing.T) {
	a, b := NewSpectrum(5), NewSpectrum(5)
	a.Reserve(1, "x")
	a.Reserve(3, "x")
	b.Reserve(3, "y")
	b.Reserve(5, "y")
	got := IntersectFree([]*Spectrum{a, b})
	if len(got) != 2 || got[0] != 2 || got[1] != 4 {
		t.Errorf("intersection = %v, want [2 4]", got)
	}
	if IntersectFree(nil) != nil {
		t.Error("empty intersection should be nil")
	}
}

// Property: reserve/release in any order never corrupts the free count.
func TestSpectrumAccountingProperty(t *testing.T) {
	prop := func(ops []uint8) bool {
		s := NewSpectrum(16)
		held := map[Channel]bool{}
		for _, op := range ops {
			ch := Channel(op%16 + 1)
			if op%2 == 0 {
				if err := s.Reserve(ch, "o"); (err == nil) != !held[ch] {
					return false
				}
				held[ch] = true
			} else {
				if err := s.Release(ch); (err == nil) != held[ch] {
					return false
				}
				delete(held, ch)
			}
		}
		return s.Used() == len(held) && len(s.UsedChannels()) == len(held)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestOTBankBestFit(t *testing.T) {
	ots := []*OT{
		{ID: "a", Node: "N", MaxRate: bw.Rate40G},
		{ID: "b", Node: "N", MaxRate: bw.Rate10G},
	}
	b := NewOTBank("N", ots)
	if b.Total() != 2 || b.Free() != 2 {
		t.Fatalf("total=%d free=%d", b.Total(), b.Free())
	}
	got, err := b.Alloc(bw.Rate10G)
	if err != nil {
		t.Fatal(err)
	}
	if got.MaxRate != bw.Rate10G {
		t.Errorf("10G request got %v OT; best fit should pick the 10G one", got.MaxRate)
	}
	got40, err := b.Alloc(bw.Rate40G)
	if err != nil {
		t.Fatal(err)
	}
	if got40.MaxRate != bw.Rate40G {
		t.Errorf("40G request got %v OT", got40.MaxRate)
	}
	if _, err := b.Alloc(bw.Rate1G); err == nil {
		t.Error("alloc from empty bank succeeded")
	}
	if err := b.Release(got); err != nil {
		t.Fatal(err)
	}
	if err := b.Release(got); err == nil {
		t.Error("double release accepted")
	}
	if err := b.Release(nil); err == nil {
		t.Error("nil release accepted")
	}
	if freeAtRate(b, bw.Rate40G) != 0 || freeAtRate(b, bw.Rate10G) != 1 {
		t.Errorf("FreeAtRate: 40G=%d 10G=%d", freeAtRate(b, bw.Rate40G), freeAtRate(b, bw.Rate10G))
	}
}

func TestOTBankRejectsTooFast(t *testing.T) {
	b := NewOTBank("N", []*OT{{ID: "a", Node: "N", MaxRate: bw.Rate10G}})
	if _, err := b.Alloc(bw.Rate40G); err == nil {
		t.Error("40G alloc from 10G-only bank succeeded")
	}
}

func TestRegenBank(t *testing.T) {
	b := NewRegenBank("N", []*Regen{
		{ID: "r1", Node: "N", MaxRate: bw.Rate40G},
		{ID: "r2", Node: "N", MaxRate: bw.Rate40G},
	})
	r1, err := b.Alloc(bw.Rate10G)
	if err != nil {
		t.Fatal(err)
	}
	if b.Free() != 1 || b.InUse() != 1 {
		t.Errorf("free=%d inuse=%d", b.Free(), b.InUse())
	}
	if err := b.Release(r1); err != nil {
		t.Fatal(err)
	}
	if err := b.Release(&Regen{ID: "zz"}); err == nil {
		t.Error("unknown regen release accepted")
	}
	if err := b.Release(nil); err == nil {
		t.Error("nil regen release accepted")
	}
}

func TestNewPlantShape(t *testing.T) {
	g := topo.Testbed()
	p, err := NewPlant(g, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, l := range g.Links() {
		s := p.Spectrum(l.ID)
		if s == nil || s.channels != 80 {
			t.Errorf("link %s spectrum wrong", l.ID)
		}
	}
	for _, n := range g.Nodes() {
		if p.OTs(n.ID).Total() != 8 {
			t.Errorf("node %s OTs = %d", n.ID, p.OTs(n.ID).Total())
		}
		if p.Regens(n.ID).Total() != 2 {
			t.Errorf("node %s regens = %d", n.ID, p.Regens(n.ID).Total())
		}
		// Mixed line rates: both 10G and 40G OTs present.
		if freeAtRate(p.OTs(n.ID), bw.Rate40G) == 0 {
			t.Errorf("node %s has no 40G OTs", n.ID)
		}
		if freeAtRate(p.OTs(n.ID), bw.Rate10G) != 8 {
			t.Errorf("node %s: all OTs should carry 10G", n.ID)
		}
	}
}

func TestNewPlantOverridesAndValidation(t *testing.T) {
	g := topo.Testbed()
	cfg := DefaultConfig()
	cfg.OTOverride = map[topo.NodeID]int{"I": 2}
	p, err := NewPlant(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if p.OTs("I").Total() != 2 {
		t.Errorf("override OTs = %d", p.OTs("I").Total())
	}
	if p.Regens("I").Total() != cfg.RegensPerNode {
		t.Errorf("regens = %d, want %d: OTOverride sizes OTs only", p.Regens("I").Total(), cfg.RegensPerNode)
	}
	if _, err := NewPlant(g, Config{Channels: 0, ReachKM: 1}); err == nil {
		t.Error("zero channels accepted")
	}
	if _, err := NewPlant(g, Config{Channels: 10, ReachKM: 0}); err == nil {
		t.Error("zero reach accepted")
	}
}

func TestPlantLinkState(t *testing.T) {
	g := topo.Testbed()
	p, _ := NewPlant(g, DefaultConfig())
	if !p.LinkUp("I-IV") {
		t.Fatal("fresh link down")
	}
	p.SetLinkUp("I-IV", false)
	if p.LinkUp("I-IV") {
		t.Fatal("failed link reported up")
	}
	path, _ := topo.PathVia(g, "I", "IV")
	if p.PathUp(path) {
		t.Error("path over failed link reported up")
	}
	down := p.DownLinks()
	if len(down) != 1 || down[0] != "I-IV" {
		t.Errorf("DownLinks = %v", down)
	}
	p.SetLinkUp("I-IV", true)
	if !p.LinkUp("I-IV") || len(p.DownLinks()) != 0 {
		t.Error("repair did not restore link")
	}
}

func TestContinuityChannels(t *testing.T) {
	g := topo.Testbed()
	p, _ := NewPlant(g, DefaultConfig())
	p.Spectrum("I-III").Reserve(1, "x")
	p.Spectrum("III-IV").Reserve(2, "y")
	chs := p.ContinuityChannels([]topo.LinkID{"I-III", "III-IV"})
	if len(chs) != 78 {
		t.Fatalf("continuity channels = %d, want 78", len(chs))
	}
	if chs[0] != 3 {
		t.Errorf("first common channel = %d, want 3", chs[0])
	}
	if p.ContinuityChannels([]topo.LinkID{"nope"}) != nil {
		t.Error("unknown link should yield nil")
	}
}

func TestPlanRegensTransparent(t *testing.T) {
	g := topo.Testbed()
	path, _ := topo.PathVia(g, "I", "II", "III", "IV")
	plan, err := PlanRegens(g, path, 2500)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.RegenNodes) > 0 {
		t.Errorf("short path should be transparent, got regens at %v", plan.RegenNodes)
	}
	if len(plan.Segments) != 1 || len(plan.Segments[0].Links) != 3 {
		t.Errorf("segments = %+v", plan.Segments)
	}
}

func TestPlanRegensSplits(t *testing.T) {
	g := topo.Backbone()
	// SEA -> CHI -> PIT: 2800 + 740 km exceeds a 3000 km reach; the regen
	// must land at CHI.
	path, err := topo.PathVia(g, "SEA", "CHI", "PIT")
	if err != nil {
		t.Fatal(err)
	}
	plan, err := PlanRegens(g, path, 3000)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.RegenNodes) != 1 || plan.RegenNodes[0] != "CHI" {
		t.Fatalf("regens = %v, want [CHI]", plan.RegenNodes)
	}
	if len(plan.Segments) != 2 {
		t.Fatalf("segments = %d", len(plan.Segments))
	}
	if plan.Segments[0].KM != 2800 || plan.Segments[1].KM != 740 {
		t.Errorf("segment lengths = %v/%v", plan.Segments[0].KM, plan.Segments[1].KM)
	}
}

func TestPlanRegensSpanTooLong(t *testing.T) {
	g := topo.Backbone()
	path, _ := topo.PathVia(g, "SEA", "CHI")
	if _, err := PlanRegens(g, path, 1000); err == nil {
		t.Error("2800 km span within 1000 km reach accepted")
	}
	if _, err := PlanRegens(g, path, 0); err == nil {
		t.Error("zero reach accepted")
	}
	if _, err := PlanRegens(g, topo.Path{}, 1000); err == nil {
		t.Error("empty path accepted")
	}
}

// Property: for random reaches, segments cover all links in order and each
// segment (except possibly single-span ones) respects reach.
func TestPlanRegensCoverageProperty(t *testing.T) {
	g := topo.Backbone()
	path, err := topo.PathVia(g, "SEA", "CHI", "PIT", "ATL", "HOU")
	if err != nil {
		t.Fatal(err)
	}
	maxSpan := 0.0
	for _, l := range path.Links {
		if g.Link(l).KM > maxSpan {
			maxSpan = g.Link(l).KM
		}
	}
	prop := func(extra uint16) bool {
		reach := maxSpan + float64(extra%4000)
		plan, err := PlanRegens(g, path, reach)
		if err != nil {
			return false
		}
		var all []topo.LinkID
		for _, seg := range plan.Segments {
			if seg.KM > reach {
				return false
			}
			all = append(all, seg.Links...)
		}
		if len(all) != len(path.Links) {
			return false
		}
		for i := range all {
			if all[i] != path.Links[i] {
				return false
			}
		}
		return len(plan.RegenNodes) == len(plan.Segments)-1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestReachForRateOverrides(t *testing.T) {
	g := topo.Testbed()
	cfg := DefaultConfig()
	cfg.ReachByRate = map[bw.Rate]float64{bw.Rate40G: 1200}
	p, err := NewPlant(g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if got := p.ReachFor(bw.Rate40G); got != 1200 {
		t.Errorf("ReachFor(40G) = %v, want 1200", got)
	}
	if got := p.ReachFor(bw.Rate10G); got != cfg.ReachKM {
		t.Errorf("ReachFor(10G) = %v, want default %v", got, cfg.ReachKM)
	}
	if got := p.ReachFor(0); got != cfg.ReachKM {
		t.Errorf("ReachFor(0) = %v, want default", got)
	}
	// A zero/negative override is ignored.
	cfg.ReachByRate[bw.Rate10G] = 0
	p2, _ := NewPlant(g, cfg)
	if got := p2.ReachFor(bw.Rate10G); got != cfg.ReachKM {
		t.Errorf("zero override honored: %v", got)
	}
}

// freeAtRate counts the bank's free transponders that can carry rate.
func freeAtRate(b *OTBank, rate bw.Rate) int {
	n := 0
	for _, ot := range b.pool.free {
		if ot.MaxRate >= rate {
			n++
		}
	}
	return n
}
