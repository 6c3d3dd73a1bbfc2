package core

import (
	"testing"

	"griphon/internal/bw"
	"griphon/internal/optics"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

func newCacheTestbed(t *testing.T, seed int64, cfg Config) (*sim.Kernel, *Controller) {
	t.Helper()
	cfg.PathCache = true
	return newChoreoTestbed(t, seed, cfg)
}

// connectAndRelease provisions a connection, waits for it, tears it down and
// drains — the repeat-customer cycle the cache accelerates.
func connectAndRelease(t *testing.T, k *sim.Kernel, c *Controller, req Request) *Connection {
	t.Helper()
	conn := mustConnect(t, k, c, req)
	if _, err := c.Disconnect(req.Customer, conn.ID); err != nil {
		t.Fatal(err)
	}
	k.Run()
	return conn
}

func TestPathCacheHitSkipsSearchAndCutsOverhead(t *testing.T) {
	k, c := newCacheTestbed(t, 1, Config{})
	first := connectAndRelease(t, k, c, oneHop)
	if got := metricValue(t, c, "griphon_pathcache_lookups_total", `result="miss"`); got != 1 {
		t.Fatalf("misses after first setup = %v, want 1", got)
	}
	if len(c.pcache.entries) != 1 {
		t.Fatalf("cache size = %d, want 1", len(c.pcache.entries))
	}

	second := mustConnect(t, k, c, oneHop)
	if got := metricValue(t, c, "griphon_pathcache_lookups_total", `result="hit"`); got != 1 {
		t.Errorf("hits after second setup = %v, want 1", got)
	}
	if second.Route().String() != "I-IV" {
		t.Errorf("cached route = %s, want the original direct I-IV", second.Route())
	}
	// A hit pays the reduced cached controller overhead instead of the full
	// path-computation overhead.
	lat := c.lat
	want := first.SetupTime() - lat.ControllerOverhead + lat.ControllerOverheadCached
	if second.SetupTime() != want {
		t.Errorf("cache-hit setup = %v, want %v", second.SetupTime(), want)
	}
	auditClean(t, c)
}

func TestPathCacheInvalidatedOnCutAndRepair(t *testing.T) {
	k, c := newCacheTestbed(t, 1, Config{})
	connectAndRelease(t, k, c, oneHop)
	if len(c.pcache.entries) != 1 {
		t.Fatalf("cache size = %d, want 1", len(c.pcache.entries))
	}

	if err := c.CutFiber("I-IV"); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(c.pcache.entries) != 0 {
		t.Errorf("cache size after cut = %d, want 0 (flushed)", len(c.pcache.entries))
	}
	if got := metricValue(t, c, "griphon_pathcache_invalidations_total", ""); got != 1 {
		t.Errorf("invalidations = %v, want 1", got)
	}

	// While the direct fiber is down, the same request routes around it and
	// caches the detour.
	detour := connectAndRelease(t, k, c, oneHop)
	if r := detour.Route().String(); r == "I-IV" {
		t.Fatalf("route = %s uses the cut fiber", r)
	}
	if len(c.pcache.entries) != 1 {
		t.Fatalf("cache size after detour = %d, want 1", len(c.pcache.entries))
	}

	// Repair flushes again: the cached detour is stale once the short path
	// is back.
	if err := c.RepairFiber("I-IV"); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if len(c.pcache.entries) != 0 {
		t.Errorf("cache size after repair = %d, want 0 (restores invalidate too)", len(c.pcache.entries))
	}
	back := mustConnect(t, k, c, oneHop)
	if back.Route().String() != "I-IV" {
		t.Errorf("route after repair = %s, want the direct I-IV", back.Route())
	}
	auditClean(t, c)
}

func TestPathCacheInvalidatedOnTopologyMutation(t *testing.T) {
	k, c := newCacheTestbed(t, 1, Config{})
	connectAndRelease(t, k, c, oneHop)
	if len(c.pcache.entries) != 1 {
		t.Fatalf("cache size = %d, want 1", len(c.pcache.entries))
	}

	// Growing the fiber plant bumps the topology version; the next lookup
	// must flush and recompute rather than serve a pre-mutation route.
	if err := c.Graph().AddNode(topo.Node{ID: "V"}); err != nil {
		t.Fatal(err)
	}
	mustConnect(t, k, c, oneHop)
	if got := metricValue(t, c, "griphon_pathcache_lookups_total", `result="hit"`); got != 0 {
		t.Errorf("hits after topology mutation = %v, want 0", got)
	}
	if got := metricValue(t, c, "griphon_pathcache_lookups_total", `result="miss"`); got != 2 {
		t.Errorf("misses = %v, want 2 (both setups searched)", got)
	}
}

// TestPathCacheStaleHitNeverReservesOnFailedLink is the belt-and-braces
// case: even if an entry somehow survives past a link failure (here it is
// force-fed back into the cache after the flush), the per-link liveness
// check on the hit path must reject it before any spectrum is reserved.
func TestPathCacheStaleHitNeverReservesOnFailedLink(t *testing.T) {
	k, c := newCacheTestbed(t, 1, Config{})
	connectAndRelease(t, k, c, oneHop)
	key := pathKey{a: "I", b: "IV", rate: bw.Rate10G, protect: Restore}
	stale, ok := c.pcache.entries[key]
	if !ok {
		t.Fatal("expected a cached entry for I->IV")
	}

	if err := c.CutFiber("I-IV"); err != nil {
		t.Fatal(err)
	}
	k.Run()
	// Simulate a missed invalidation: resurrect the stale entry pointing
	// over the dead fiber.
	c.pcache.entries[key] = stale
	c.pcache.version = c.Graph().Version()

	conn := mustConnect(t, k, c, oneHop)
	if r := conn.Route().String(); r == "I-IV" {
		t.Fatalf("stale cache hit reserved on the failed link (route %s)", r)
	}
	for _, l := range []topo.LinkID{"I-IV"} {
		if used := c.Plant().Spectrum(l).Used(); used != 0 {
			t.Errorf("spectrum on failed link %s: %d channels in use, want 0", l, used)
		}
	}
	// The dead entry was evicted on the failed hit — and that eviction is
	// visible on its own counter, not silently folded into flushes.
	if got := metricValue(t, c, "griphon_pathcache_lookups_total", `result="hit"`); got != 0 {
		t.Errorf("hits = %v, want 0 (stale entry must not count as a hit)", got)
	}
	if got := metricValue(t, c, "griphon_pathcache_evictions_total", `reason="dead_link"`); got != 1 {
		t.Errorf("dead_link evictions = %v, want 1", got)
	}
	auditClean(t, c)
}

// TestPathCacheEvictsWavelengthBlockedEntry: a cached path whose spectrum is
// exhausted right now is evicted on the hit path and counted under its own
// reason, while the full search routes around it.
func TestPathCacheEvictsWavelengthBlockedEntry(t *testing.T) {
	opt := optics.DefaultConfig()
	opt.Channels = 1
	k, c := newCacheTestbed(t, 1, Config{Optics: opt})

	// First setup stays up, pinning the single channel on the cached path.
	first := mustConnect(t, k, c, oneHop)
	if first.Route().String() != "I-IV" {
		t.Fatalf("first route = %s, want the direct I-IV", first.Route())
	}
	// Second identical request hits the cache, finds the path wavelength-
	// blocked, evicts the entry and succeeds via the full search's detour.
	second := mustConnect(t, k, c, oneHop)
	if r := second.Route().String(); r == "I-IV" {
		t.Fatalf("second route = %s reuses the exhausted fiber", r)
	}
	if got := metricValue(t, c, "griphon_pathcache_evictions_total", `reason="wavelength_blocked"`); got != 1 {
		t.Errorf("wavelength_blocked evictions = %v, want 1", got)
	}
	if got := metricValue(t, c, "griphon_pathcache_lookups_total", `result="hit"`); got != 0 {
		t.Errorf("hits = %v, want 0 (blocked entry must not count as a hit)", got)
	}
	auditClean(t, c)
}

// TestPathCacheObserverFlushSyncsVersion pins the flush/version alignment:
// a flush triggered by the link-state observer must leave the cache's
// topology version current, so the next lookup does not flush — and wipe a
// freshly repopulated cache — a second time.
func TestPathCacheObserverFlushSyncsVersion(t *testing.T) {
	k, c := newCacheTestbed(t, 1, Config{})
	connectAndRelease(t, k, c, oneHop)
	key := pathKey{a: "I", b: "IV", rate: bw.Rate10G, protect: Restore}
	entry, ok := c.pcache.entries[key]
	if !ok {
		t.Fatal("expected a cached entry for I->IV")
	}

	// Bump the topology version without a lookup in between...
	if err := c.Graph().AddNode(topo.Node{ID: "V"}); err != nil {
		t.Fatal(err)
	}
	// ...then let the link-state observer trigger the flush.
	if err := c.CutFiber("I-IV"); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if err := c.RepairFiber("I-IV"); err != nil {
		t.Fatal(err)
	}
	k.Run()
	if c.pcache.version != c.Graph().Version() {
		t.Fatalf("observer flush left cache at version %d, graph at %d",
			c.pcache.version, c.Graph().Version())
	}

	// Work repopulating the cache between the flush and the next lookup
	// must survive that lookup.
	c.pcache.entries[key] = entry
	conn := mustConnect(t, k, c, oneHop)
	if conn.Route().String() != "I-IV" {
		t.Errorf("route = %s, want the cached direct I-IV", conn.Route())
	}
	if got := metricValue(t, c, "griphon_pathcache_lookups_total", `result="hit"`); got != 1 {
		t.Errorf("hits = %v, want 1 (repopulated entry served)", got)
	}
	if got := metricValue(t, c, "griphon_pathcache_invalidations_total", ""); got != 1 {
		t.Errorf("invalidations = %v, want 1 (the observer flush only)", got)
	}
}

// TestPathCacheKeyedByProtection: a 1+1 request and a restorable request
// between the same PoPs are distinct cache lines.
func TestPathCacheKeyedByProtection(t *testing.T) {
	k, c := newCacheTestbed(t, 1, Config{})
	connectAndRelease(t, k, c, oneHop)
	prot := oneHop
	prot.Protect = OnePlusOne
	connectAndRelease(t, k, c, prot)
	// The 1+1 primary is cache-eligible (protect leg is not: it carries an
	// avoid set), so two entries coexist.
	if len(c.pcache.entries) != 2 {
		t.Errorf("cache size = %d, want 2 (keyed by protection)", len(c.pcache.entries))
	}
	auditClean(t, c)
}
