package core

import (
	"fmt"
	"sort"
	"strings"

	"griphon/internal/bw"
	"griphon/internal/topo"
)

// Finding is one invariant violation reported by AuditInvariants.
type Finding struct {
	// Kind names the broken invariant ("spectrum-owner", "ot-count", ...).
	Kind string
	// Detail says what exactly is wrong, with identifiers.
	Detail string
}

func (f Finding) String() string { return f.Kind + ": " + f.Detail }

// AuditInvariants sweeps the whole resource database for cross-layer
// accounting drift: orphaned spectrum, leaked transponders, OTN slot books
// that do not sum, over-subscribed access pipes, ROADM or FXC state owned by
// dead connections, ledger claims with no connection behind them, and ledger
// releases that failed. It returns every violation found (empty means the
// books balance). The chaos soak calls it after every operation; tests call
// it through checkInvariants.
//
// The check is read-only and safe at any instant of virtual time: every
// mutation in the controller happens atomically within one event, so between
// events the books must always balance, even with setups and teardowns in
// flight.
func (c *Controller) AuditInvariants() []Finding {
	var out []Finding
	report := func(kind, format string, args ...any) {
		out = append(out, Finding{Kind: kind, Detail: fmt.Sprintf(format, args...)})
	}

	// Live (resource-holding) connections index every ownership check below.
	live := make(map[string]*Connection, len(c.conns.live))
	for _, conn := range c.conns.live {
		live[string(conn.ID)] = conn
	}

	// 1. Every occupied (link, wavelength) pair is owned by a live connection.
	for _, l := range c.g.Links() {
		sp := c.plant.Spectrum(l.ID)
		for _, ch := range sp.UsedChannels() {
			if _, ok := live[sp.Owner(ch)]; !ok {
				report("spectrum-owner", "channel %d on %s owned by dead %q", ch, l.ID, sp.Owner(ch))
			}
		}
	}

	// 2. Transponders in use: exactly two per live DWDM lightpath (working
	// and 1+1 protect legs count separately).
	wantOTs := 0
	for _, conn := range live {
		if conn.Layer != LayerDWDM {
			continue
		}
		wantOTs += 2
		if conn.Protect == OnePlusOne {
			wantOTs += 2
		}
	}
	gotOTs := 0
	for _, n := range c.g.Nodes() {
		pool := c.plant.OTs(n.ID)
		gotOTs += pool.InUse()
		if pool.InUse() < 0 || pool.InUse() > pool.Total() {
			report("ot-pool", "node %s transponder pool %d/%d out of range", n.ID, pool.InUse(), pool.Total())
		}
		rp := c.plant.Regens(n.ID)
		if rp.InUse() < 0 || rp.InUse() > rp.Total() {
			report("regen-pool", "node %s regen pool %d/%d out of range", n.ID, rp.InUse(), rp.Total())
		}
	}
	if gotOTs != wantOTs {
		report("ot-count", "transponders in use = %d, want %d for the live lightpaths", gotOTs, wantOTs)
	}

	// 3. OTN pipes: slot books sum, and every slot or shared reservation is
	// owned by a live connection.
	for _, p := range c.fabric.Pipes() {
		if p.UsedSlots()+p.FreeSlots() != p.TotalSlots() {
			report("pipe-slots", "pipe %s books broken: %d used + %d free != %d total",
				p.ID(), p.UsedSlots(), p.FreeSlots(), p.TotalSlots())
		}
		for _, owner := range p.Owners() {
			if _, ok := live[owner]; !ok {
				report("pipe-owner", "pipe %s slots owned by dead %q", p.ID(), owner)
			}
		}
		for _, owner := range p.SharedOwners() {
			if _, ok := live[owner]; !ok {
				report("pipe-shared-owner", "pipe %s shared reservation by dead %q", p.ID(), owner)
			}
		}
	}

	// 4. Each access pipe carries exactly the live customer connections
	// that end at its site, within its size.
	wantAccess := map[topo.SiteID]bw.Rate{}
	for _, conn := range c.conns.live {
		if !conn.Internal {
			wantAccess[conn.From] += conn.Rate
			wantAccess[conn.To] += conn.Rate
		}
	}
	for _, site := range c.g.Sites() {
		used := c.accessUsed[site.ID]
		if used != wantAccess[site.ID] || used > bw.GbpsOf(site.AccessGbps) || used < 0 {
			report("access", "site %s access used %v of %gG, live connections hold %v",
				site.ID, used, site.AccessGbps, wantAccess[site.ID])
		}
	}

	// 5. ROADM add/drop accounting in range, and every configured segment is
	// owned by a live connection (segment owners are "<conn>#lpN.segM").
	for _, n := range c.g.Nodes() {
		node := c.roadms.Node(n.ID)
		if node.AddDropUsed() < 0 || node.AddDropFree() < 0 {
			report("roadm-ports", "ROADM %s port accounting negative (%d used, %d free)",
				n.ID, node.AddDropUsed(), node.AddDropFree())
		}
		for _, owner := range node.Owners() {
			id := owner
			if i := strings.IndexByte(owner, '#'); i >= 0 {
				id = owner[:i]
			}
			if _, ok := live[id]; !ok {
				report("roadm-owner", "ROADM %s holds state for dead %q", n.ID, owner)
			}
		}
	}

	// 6. Every FXC cross-connect is owned by a live connection.
	for _, n := range c.g.Nodes() {
		sw := c.fxcs[n.ID]
		if sw == nil {
			continue
		}
		for _, owner := range sw.Owners() {
			if _, ok := live[owner]; !ok {
				report("fxc-owner", "FXC %s cross-connect owned by dead %q", n.ID, owner)
			}
		}
	}

	// 7. Ledger: claims and live connections match one-to-one, and billed
	// bandwidth equals the live rates — customers' and the carrier's.
	claimed := map[string]bool{}
	for _, key := range c.ledger.Claims() {
		claimed[key] = true
		if id, ok := strings.CutPrefix(key, "conn:"); ok {
			if _, isLive := live[id]; !isLive {
				report("ledger-claim", "claim %q has no live connection", key)
			}
		}
	}
	liveIDs := make([]string, 0, len(live))
	for id := range live {
		liveIDs = append(liveIDs, id)
	}
	sort.Strings(liveIDs)
	for _, id := range liveIDs {
		if !claimed[connKey(ConnID(id))] {
			report("ledger-claim", "live connection %s holds no ledger claim", id)
		}
	}
	var wantCust, wantCarrier bw.Rate
	for _, conn := range live {
		if conn.Internal {
			wantCarrier += conn.Rate
		} else {
			wantCust += conn.Rate
		}
	}
	var gotCust, gotCarrier bw.Rate
	for _, cust := range c.ledger.Customers() {
		if cust == CarrierCustomer {
			gotCarrier += c.ledger.UsageOf(cust).Bandwidth
		} else {
			gotCust += c.ledger.UsageOf(cust).Bandwidth
		}
	}
	if gotCust != wantCust {
		report("ledger-bandwidth", "customer bandwidth %v, want %v", gotCust, wantCust)
	}
	if gotCarrier != wantCarrier {
		report("ledger-bandwidth", "carrier bandwidth %v, want %v", gotCarrier, wantCarrier)
	}

	// 8. No ledger release has failed.
	for _, e := range c.releaseErrs {
		report("ledger-release", "%s", e)
	}
	return out
}
