package otn

import (
	"testing"
	"testing/quick"

	"griphon/internal/bw"
	"griphon/internal/topo"
)

func TestLevelSlotsAndRates(t *testing.T) {
	cases := []struct {
		l     Level
		slots int
		rate  bw.Rate
		str   string
	}{
		{ODU0, 1, bw.Rate1G, "ODU0"},
		{ODU1, 2, bw.Rate2G5, "ODU1"},
		{ODU2, 8, bw.Rate10G, "ODU2"},
		{ODU3, 32, bw.Rate40G, "ODU3"},
	}
	for _, c := range cases {
		if c.l.Slots() != c.slots {
			t.Errorf("%v.Slots() = %d, want %d", c.l, c.l.Slots(), c.slots)
		}
		if c.l.ClientRate() != c.rate {
			t.Errorf("%v.ClientRate() = %v, want %v", c.l, c.l.ClientRate(), c.rate)
		}
		if c.l.String() != c.str {
			t.Errorf("String = %q", c.l.String())
		}
	}
	if Level(9).Slots() != 0 || Level(9).ClientRate() != 0 {
		t.Error("invalid level should have zero slots/rate")
	}
}

func TestLevelFor(t *testing.T) {
	cases := []struct {
		r    bw.Rate
		want Level
	}{
		{bw.Rate1G, ODU0},
		{500 * bw.Mbps, ODU0},
		{bw.Rate2G5, ODU1},
		{2 * bw.Gbps, ODU1},
		{bw.Rate10G, ODU2},
		{bw.Rate40G, ODU3},
		{11 * bw.Gbps, ODU3},
	}
	for _, c := range cases {
		got, err := LevelFor(c.r)
		if err != nil {
			t.Errorf("LevelFor(%v): %v", c.r, err)
			continue
		}
		if got != c.want {
			t.Errorf("LevelFor(%v) = %v, want %v", c.r, got, c.want)
		}
	}
	if _, err := LevelFor(0); err == nil {
		t.Error("LevelFor(0) accepted")
	}
	if _, err := LevelFor(bw.Rate100G); err == nil {
		t.Error("LevelFor(100G) accepted")
	}
	if n, _ := SlotsFor(bw.Rate2G5); n != 2 {
		t.Errorf("SlotsFor(2.5G) = %d", n)
	}
	if _, err := SlotsFor(-1); err == nil {
		t.Error("SlotsFor(-1) accepted")
	}
}

func TestNewPipeValidation(t *testing.T) {
	if _, err := NewPipe("", "A", "B", ODU2); err == nil {
		t.Error("empty ID accepted")
	}
	if _, err := NewPipe("p", "A", "A", ODU2); err == nil {
		t.Error("self-loop accepted")
	}
	if _, err := NewPipe("p", "A", "B", ODU0); err == nil {
		t.Error("ODU0 line pipe accepted")
	}
}

func TestPipeReserveRelease(t *testing.T) {
	p, err := NewPipe("p1", "A", "B", ODU2)
	if err != nil {
		t.Fatal(err)
	}
	if p.TotalSlots() != 8 || p.FreeSlots() != 8 {
		t.Fatalf("slots: total=%d free=%d", p.TotalSlots(), p.FreeSlots())
	}
	idx, err := p.Reserve("c1", 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 2 || idx[0] != 0 || idx[1] != 1 {
		t.Errorf("indices = %v", idx)
	}
	if p.FreeSlots() != 6 || p.UsedSlots() != 2 {
		t.Errorf("free=%d used=%d", p.FreeSlots(), p.UsedSlots())
	}
	if got := p.SlotsOf("c1"); len(got) != 2 {
		t.Errorf("SlotsOf = %v", got)
	}
	if _, err := p.Reserve("c2", 7); err == nil {
		t.Error("over-reservation accepted")
	}
	if p.FreeSlots() != 6 {
		t.Error("failed reserve leaked slots")
	}
	n, err := p.ReleaseOwner("c1")
	if err != nil || n != 2 {
		t.Errorf("release = %d,%v", n, err)
	}
	if _, err := p.ReleaseOwner("c1"); err == nil {
		t.Error("double release accepted")
	}
	if _, err := p.Reserve("", 1); err == nil {
		t.Error("empty owner accepted")
	}
	if _, err := p.Reserve("x", 0); err == nil {
		t.Error("zero slots accepted")
	}
}

func TestPipeDownBlocksReserve(t *testing.T) {
	p, _ := NewPipe("p1", "A", "B", ODU2)
	p.SetUp(false)
	if p.Up() {
		t.Fatal("SetUp(false) ignored")
	}
	if _, err := p.Reserve("c", 1); err == nil {
		t.Error("reserve on down pipe accepted")
	}
}

func TestPipeSharedReservations(t *testing.T) {
	p, _ := NewPipe("p1", "A", "B", ODU2)
	if err := p.ReserveShared("b1", 8); err != nil {
		t.Fatal(err)
	}
	if err := p.ReserveShared("b2", 8); err != nil {
		t.Fatalf("oversubscription must be allowed: %v", err)
	}
	if err := p.ReserveShared("b1", 1); err == nil {
		t.Error("duplicate shared reservation accepted")
	}
	if p.shared["b1"]+p.shared["b2"] != 16 {
		t.Errorf("shared demand = %d", p.shared["b1"]+p.shared["b2"])
	}
	owners := p.SharedOwners()
	if len(owners) != 2 || owners[0] != "b1" || owners[1] != "b2" {
		t.Errorf("SharedOwners = %v", owners)
	}

	idx, err := p.Activate("b1")
	if err != nil {
		t.Fatal(err)
	}
	if len(idx) != 8 || p.FreeSlots() != 0 {
		t.Errorf("activation took %d slots, free=%d", len(idx), p.FreeSlots())
	}
	// b2's activation must now block: the shared pool is spent.
	if _, err := p.Activate("b2"); err == nil {
		t.Error("second activation succeeded on a full pipe")
	}
	if err := p.ReleaseShared("b2"); err != nil {
		t.Fatal(err)
	}
	if err := p.ReleaseShared("b2"); err == nil {
		t.Error("double shared release accepted")
	}
	if _, err := p.Activate("zz"); err == nil {
		t.Error("activation without reservation accepted")
	}
}

func fabricABC(t *testing.T) (*Fabric, *Pipe, *Pipe, *Pipe) {
	t.Helper()
	f := NewFabric()
	for _, n := range []topo.NodeID{"A", "B", "C"} {
		f.AddSwitch(n)
	}
	ab, err := f.AddPipe("A", "B", ODU2)
	if err != nil {
		t.Fatal(err)
	}
	bc, err := f.AddPipe("B", "C", ODU2)
	if err != nil {
		t.Fatal(err)
	}
	ac, err := f.AddPipe("A", "C", ODU2)
	if err != nil {
		t.Fatal(err)
	}
	return f, ab, bc, ac
}

func TestFabricBasics(t *testing.T) {
	f, ab, _, _ := fabricABC(t)
	if !f.HasSwitch("A") || f.HasSwitch("Z") {
		t.Error("HasSwitch wrong")
	}
	if len(f.Pipes()) != 3 {
		t.Errorf("Pipes = %d", len(f.Pipes()))
	}
	if len(f.PipesAt("A")) != 2 {
		t.Errorf("PipesAt(A) = %d", len(f.PipesAt("A")))
	}
	if f.Pipe(ab.ID()) != ab {
		t.Error("Pipe lookup failed")
	}
	if _, err := f.AddPipe("A", "Z", ODU2); err == nil {
		t.Error("pipe to missing switch accepted")
	}
	if _, err := f.AddPipe("Z", "A", ODU2); err == nil {
		t.Error("pipe from missing switch accepted")
	}
}

func TestFabricMultigraph(t *testing.T) {
	f, _, _, _ := fabricABC(t)
	p2, err := f.AddPipe("A", "B", ODU3)
	if err != nil {
		t.Fatal(err)
	}
	if got := f.PipesAt("B"); len(got) != 3 {
		t.Errorf("pipes at B = %d, want 3 (A-B twice, B-C)", len(got))
	}
	if p2.TotalSlots() != 32 {
		t.Errorf("ODU3 pipe slots = %d", p2.TotalSlots())
	}
}

func TestRemovePipe(t *testing.T) {
	f, ab, _, _ := fabricABC(t)
	ab.Reserve("c1", 1)
	if err := f.RemovePipe(ab.ID()); err == nil {
		t.Error("removed a pipe carrying traffic")
	}
	ab.ReleaseOwner("c1")
	ab.ReserveShared("b1", 1)
	if err := f.RemovePipe(ab.ID()); err == nil {
		t.Error("removed a pipe with shared reservations")
	}
	ab.ReleaseShared("b1")
	if err := f.RemovePipe(ab.ID()); err != nil {
		t.Fatal(err)
	}
	if err := f.RemovePipe(ab.ID()); err == nil {
		t.Error("double remove accepted")
	}
	if len(f.PipesAt("A")) != 1 {
		t.Errorf("PipesAt(A) after removal = %d", len(f.PipesAt("A")))
	}
}

func TestFindPathDirectAndDetour(t *testing.T) {
	f, ab, bc, ac := fabricABC(t)
	path, err := f.FindPath("A", "C", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 1 || path[0] != ac {
		t.Errorf("path = %v, want direct A-C", path)
	}
	// Fill the direct pipe; path must detour via B.
	ac.Reserve("x", 8)
	path, err = f.FindPath("A", "C", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 || path[0] != ab || path[1] != bc {
		t.Errorf("detour path wrong: %v", path)
	}
	// Avoid set blocks the detour too.
	if _, err := f.FindPath("A", "C", 1, map[PipeID]bool{ab.ID(): true}); err == nil {
		t.Error("path found despite avoid set")
	}
}

func TestFindPathValidation(t *testing.T) {
	f, _, _, _ := fabricABC(t)
	if _, err := f.FindPath("Z", "C", 1, nil); err == nil {
		t.Error("unknown src accepted")
	}
	if _, err := f.FindPath("A", "Z", 1, nil); err == nil {
		t.Error("unknown dst accepted")
	}
	if _, err := f.FindPath("A", "A", 1, nil); err == nil {
		t.Error("src==dst accepted")
	}
}

func TestFindPathSkipsDownPipes(t *testing.T) {
	f, ab, bc, ac := fabricABC(t)
	ac.SetUp(false)
	path, err := f.FindPath("A", "C", 1, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(path) != 2 || path[0] != ab || path[1] != bc {
		t.Errorf("path = %v, want A-B-C", path)
	}
}

func TestReserveReleasePathAtomic(t *testing.T) {
	f, ab, bc, _ := fabricABC(t)
	_ = f
	bc.Reserve("other", 8) // bc full
	if err := ReservePath([]*Pipe{ab, bc}, "c1", 2); err == nil {
		t.Fatal("reserve over full pipe succeeded")
	}
	if ab.FreeSlots() != 8 {
		t.Errorf("rollback failed: ab free = %d", ab.FreeSlots())
	}
	bc.ReleaseOwner("other")
	if err := ReservePath([]*Pipe{ab, bc}, "c1", 2); err != nil {
		t.Fatal(err)
	}
	if ab.FreeSlots() != 6 || bc.FreeSlots() != 6 {
		t.Error("reserve path did not take slots")
	}
	if err := ReleasePath([]*Pipe{ab, bc}, "c1"); err != nil {
		t.Fatal(err)
	}
	if ab.FreeSlots() != 8 || bc.FreeSlots() != 8 {
		t.Error("release path did not free slots")
	}
	if err := ReleasePath([]*Pipe{ab, bc}, "c1"); err == nil {
		t.Error("double path release accepted")
	}
}

func TestSharedPathActivation(t *testing.T) {
	f, ab, bc, ac := fabricABC(t)
	_, _ = f, ac
	if err := ReserveSharedPath([]*Pipe{ab, bc}, "b1", 2); err != nil {
		t.Fatal(err)
	}
	if err := ReserveSharedPath([]*Pipe{ab, bc}, "b1", 2); err == nil {
		t.Error("duplicate shared path accepted")
	}
	if err := ActivatePath([]*Pipe{ab, bc}, "b1"); err != nil {
		t.Fatal(err)
	}
	if ab.UsedSlots() != 2 || bc.UsedSlots() != 2 {
		t.Error("activation did not allocate slots")
	}
	if len(ab.SharedOwners()) != 0 {
		t.Error("shared reservation survived activation")
	}
}

func TestActivatePathRollsBack(t *testing.T) {
	f, ab, bc, _ := fabricABC(t)
	_ = f
	ReserveSharedPath([]*Pipe{ab, bc}, "b1", 2)
	bc.Reserve("hog", 7) // bc has only 1 free slot; activation must fail
	if err := ActivatePath([]*Pipe{ab, bc}, "b1"); err == nil {
		t.Fatal("activation succeeded without capacity")
	}
	if ab.UsedSlots() != 0 {
		t.Error("rollback left slots allocated on ab")
	}
	if len(ab.SharedOwners()) != 1 || len(bc.SharedOwners()) != 1 {
		t.Error("rollback lost shared reservations")
	}
}

// Property: random reserve/release sequences never make free+used diverge
// from the total, and SlotsOf matches UsedSlots.
func TestPipeAccountingProperty(t *testing.T) {
	prop := func(ops []uint8) bool {
		p, _ := NewPipe("p", "A", "B", ODU3)
		owners := []string{"w", "x", "y", "z"}
		held := map[string]int{}
		for _, op := range ops {
			o := owners[op%4]
			n := int(op/4)%5 + 1
			if op%2 == 0 {
				if _, err := p.Reserve(o, n); err == nil {
					held[o] += n
				}
			} else if held[o] > 0 {
				p.ReleaseOwner(o)
				held[o] = 0
			}
			total := 0
			for _, v := range held {
				total += v
			}
			if p.UsedSlots() != total || p.FreeSlots() != 32-total {
				return false
			}
			for o2, v := range held {
				if len(p.SlotsOf(o2)) != v {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestPipeAccessorsAndReleaseSlots(t *testing.T) {
	p, _ := NewPipe("p1", "A", "B", ODU2)
	a, b := p.Ends()
	if a != "A" || b != "B" {
		t.Errorf("Ends = %s,%s", a, b)
	}
	if p.Level() != ODU2 {
		t.Errorf("Level = %v", p.Level())
	}
	if p.Other("B") != "A" {
		t.Error("Other(B)")
	}
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Other on non-endpoint did not panic")
			}
		}()
		p.Other("Z")
	}()

	p.Reserve("c1", 4)
	if err := p.ReleaseSlots("c1", 2); err != nil {
		t.Fatal(err)
	}
	if got := len(p.SlotsOf("c1")); got != 2 {
		t.Errorf("slots after partial release = %d", got)
	}
	// Highest indices released first: 0 and 1 remain.
	held := p.SlotsOf("c1")
	if held[0] != 0 || held[1] != 1 {
		t.Errorf("kept slots = %v, want lowest", held)
	}
	if err := p.ReleaseSlots("c1", 3); err == nil {
		t.Error("over-release accepted")
	}
	if err := p.ReleaseSlots("c1", 0); err == nil {
		t.Error("zero release accepted")
	}
	if err := p.ReleaseSlots("ghost", 1); err == nil {
		t.Error("unknown owner release accepted")
	}
}

func TestFabricFrom(t *testing.T) {
	f := FabricFrom(topo.Testbed())
	// Testbed has OTN switches at I, III, IV (not II).
	if !f.HasSwitch("I") || !f.HasSwitch("III") || !f.HasSwitch("IV") {
		t.Error("missing switches")
	}
	if f.HasSwitch("II") {
		t.Error("II should have no OTN switch")
	}
}

func TestReserveSharedValidation(t *testing.T) {
	p, _ := NewPipe("p1", "A", "B", ODU2)
	if err := p.ReserveShared("", 1); err == nil {
		t.Error("empty owner accepted")
	}
	if err := p.ReserveShared("b", 0); err == nil {
		t.Error("zero slots accepted")
	}
}

func TestActivatePathMissingReservation(t *testing.T) {
	f, ab, bc, _ := fabricABC(t)
	_ = f
	// Reservation only on the first pipe: activation must roll back.
	ab.ReserveShared("b1", 2)
	if err := ActivatePath([]*Pipe{ab, bc}, "b1"); err == nil {
		t.Fatal("activation with partial reservation accepted")
	}
	if ab.UsedSlots() != 0 {
		t.Error("rollback left slots on ab")
	}
	if len(ab.SharedOwners()) != 1 {
		t.Error("rollback lost ab's reservation")
	}
}

func TestLevelStringUnknown(t *testing.T) {
	if Level(9).String() != "Level(9)" {
		t.Errorf("String = %q", Level(9).String())
	}
}

func TestReserveSharedPathDuplicateRollsBack(t *testing.T) {
	f, ab, bc, _ := fabricABC(t)
	_ = f
	bc.ReserveShared("b1", 1) // pre-existing on the second pipe
	if err := ReserveSharedPath([]*Pipe{ab, bc}, "b1", 1); err == nil {
		t.Fatal("duplicate shared path accepted")
	}
	if len(ab.SharedOwners()) != 0 {
		t.Error("rollback left reservation on ab")
	}
}
