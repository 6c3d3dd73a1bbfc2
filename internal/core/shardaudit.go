package core

// Cross-shard invariant auditing. Each shard's own AuditInvariants covers its
// slice of the books; the sweeps here cover what only the set can see — that
// the shards' views of the shared plant agree with the coordinator's, and
// that no customer's state leaked onto a shard that doesn't own them.

import (
	"fmt"
	"slices"
)

// AuditInvariants audits every shard's books plus the cross-shard invariants:
//
//   - every per-shard finding, its detail prefixed with the shard;
//   - xshard-spectrum: every channel a shard's plant has lit on a shared
//     fiber is backed by that shard's coordinator claim;
//   - xshard-leak: every coordinator claim a shard holds is backed by a
//     channel that shard's plant has lit — the converse direction, catching
//     claims that outlive their resource;
//   - tenant-leak: every customer with state on a shard actually hashes to
//     that shard;
//   - xshard-violation: release/claim inconsistencies the coordinator
//     recorded as they happened;
//   - plant-replica: every shard's plant replica shows the links down that
//     shard 0's does.
//
// Empty means every shard's books balance and the shards agree with the
// coordinator and on the plant. A plant claims and lights a channel in one
// step, and a fiber event reaches every replica at one instant, so this holds
// between any two events, like the per-shard audit. Read-only.
func (s *ShardSet) AuditInvariants() []Finding {
	var out []Finding
	report := func(kind, format string, args ...any) {
		out = append(out, Finding{Kind: kind, Detail: fmt.Sprintf(format, args...)})
	}

	for i, sh := range s.shards {
		for _, f := range sh.Ctrl.AuditInvariants() {
			out = append(out, Finding{Kind: f.Kind, Detail: fmt.Sprintf("shard-%d: %s", i, f.Detail)})
		}
	}
	out = append(out, s.plantDrift()...)
	if s.coord == nil {
		return out
	}

	for i, sh := range s.shards {
		c := sh.Ctrl

		// Shard-side resources the leak sweep matches claims against.
		litChannels := map[string]bool{} // "link:ch"
		for _, l := range c.g.Links() {
			sp := c.plant.Spectrum(l.ID)
			for _, ch := range sp.UsedChannels() {
				litChannels[fmt.Sprintf("%s:%d", l.ID, ch)] = true
				if !s.coord.ownsChannel(i, l.ID, ch) {
					report("xshard-spectrum", "shard-%d lit channel %d on %s without a coordinator claim (owner %q)",
						i, ch, l.ID, sp.Owner(ch))
				}
			}
		}
		for _, key := range s.coord.shardClaims(i) {
			if !litChannels[key] {
				report("xshard-leak", "shard-%d claim %q has no lit channel behind it", i, key)
			}
		}

		// Customer-owned state must live on the owning shard. The carrier's
		// internal conns are shard-local by construction and exempt.
		for _, conn := range c.conns.live {
			if conn.Internal {
				continue
			}
			if want := s.ShardFor(conn.Customer); want != i {
				report("tenant-leak", "connection %s of %s lives on shard-%d, owner is shard-%d",
					conn.ID, conn.Customer, i, want)
			}
		}
		for _, b := range c.AllBookings() {
			if want := s.ShardFor(b.Req.Customer); want != i {
				report("tenant-leak", "booking %d of %s lives on shard-%d, owner is shard-%d",
					b.ID, b.Req.Customer, i, want)
			}
		}
	}

	for _, v := range s.coord.Violations() {
		report("xshard-violation", "%s", v)
	}
	return out
}

// plantDrift returns a plant-replica finding for every shard whose replica
// shows other links down than shard 0's.
func (s *ShardSet) plantDrift() []Finding {
	var out []Finding
	want := s.shards[0].Ctrl.plant.DownLinks()
	for i, sh := range s.shards[1:] {
		if got := sh.Ctrl.plant.DownLinks(); !slices.Equal(got, want) {
			out = append(out, Finding{Kind: "plant-replica",
				Detail: fmt.Sprintf("shard-%d has links %v down, shard-0 %v", i+1, got, want)})
		}
	}
	return out
}
