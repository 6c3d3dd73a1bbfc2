package core

import (
	"griphon/internal/bw"
	"griphon/internal/optics"
	"griphon/internal/rwa"
	"griphon/internal/topo"
)

// pathKey identifies one cacheable routing question. Protection is part of
// the key because 1+1 requests route differently downstream (the protect leg
// avoids the primary), and a future policy may bias primaries of protected
// services toward shorter paths.
type pathKey struct {
	a, b    topo.NodeID
	rate    bw.Rate
	protect Protection
}

// pathEntry is a cached answer: the fiber path and its regeneration split.
// Wavelengths are NOT cached — spectrum occupancy changes with every setup
// and teardown, so channels are re-assigned fresh on every hit.
type pathEntry struct {
	path topo.Path
	plan optics.RegenPlan
}

// pathCache fronts reserveLightpath's route computation (Config.PathCache).
// Validity is belt and braces:
//   - the whole cache is flushed on every link-state change, via the plant's
//     SetOnLinkState observer (covers FailLink/RestoreLink and direct
//     SetLinkUp calls alike);
//   - the whole cache is flushed when the topology's mutation counter moves
//     (nodes or links added);
//   - every hit still verifies each link of the cached path is up before any
//     reservation happens, so even a stale entry can never reserve spectrum
//     on a failed link.
type pathCache struct {
	entries map[pathKey]pathEntry
	// version is the topo.Graph.Version the entries were computed against.
	version uint64
}

// pcacheFlush drops every cached route. Counted once per flush event, not per
// entry — the signal of interest is "how often does state churn evict". The
// flush also syncs the cache's topology version, so a flush triggered by the
// link-state observer is not re-counted by the next lookup's version check.
func (c *Controller) pcacheFlush() {
	if c.pcache == nil {
		return
	}
	c.pcache.version = c.g.Version()
	if len(c.pcache.entries) == 0 {
		return
	}
	c.pcache.entries = make(map[pathKey]pathEntry)
	c.ins.pathcacheInvalidations.Inc()
}

// pcacheLookup answers a routing question from the cache, re-assigning fresh
// wavelengths along the cached path. A miss — or a hit whose path no longer
// survives the link-state check or wavelength assignment — returns false,
// dropping the dead entry so the caller's full search repopulates it.
func (c *Controller) pcacheLookup(key pathKey) (rwa.Route, bool) {
	if c.pcache.version != c.g.Version() {
		c.pcacheFlush()
	}
	e, ok := c.pcache.entries[key]
	if !ok {
		return rwa.Route{}, false
	}
	for _, l := range e.path.Links {
		if !c.plant.LinkUp(l) {
			// Should have been flushed by the link-state observer; this
			// is the last line of defense against reserving on a dead
			// fiber. Counted apart from whole-cache invalidations — a
			// rising dead_link rate means the observer is being bypassed.
			delete(c.pcache.entries, key)
			c.ins.pathcacheEvictDeadLink.Inc()
			return rwa.Route{}, false
		}
	}
	channels := make([]optics.Channel, 0, len(e.plan.Segments))
	for _, seg := range e.plan.Segments {
		ch, err := rwa.AssignWavelength(c.plant, seg.Links, c.rwaOpt.Policy, c.rwaOpt.Rand)
		if err != nil {
			// Cached path is wavelength-blocked right now; a full search
			// may find a different path, so evict and miss.
			delete(c.pcache.entries, key)
			c.ins.pathcacheEvictBlocked.Inc()
			return rwa.Route{}, false
		}
		channels = append(channels, ch)
	}
	return rwa.Route{Path: e.path, Plan: e.plan, Channels: channels}, true
}

// pcacheStore remembers a freshly computed route for its key.
func (c *Controller) pcacheStore(key pathKey, route rwa.Route) {
	if c.pcache.version != c.g.Version() {
		c.pcacheFlush()
	}
	c.pcache.entries[key] = pathEntry{path: route.Path, plan: route.Plan}
}
