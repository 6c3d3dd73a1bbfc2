package optics

import (
	"fmt"
	"sort"

	"griphon/internal/bw"
	"griphon/internal/topo"
)

// Config sizes the photonic plant built over a topology.
type Config struct {
	// Channels is the DWDM grid size per fiber (40–100 in deployed
	// systems, paper §2.1).
	Channels int
	// ReachKM is the optical reach: the maximum transparent distance
	// before OEO regeneration is required.
	ReachKM float64
	// ReachByRate optionally overrides reach per line rate — higher rates
	// tolerate less dispersion/OSNR degradation, so a 40G signal needs
	// regeneration sooner than a 10G one. Rates not listed use ReachKM.
	ReachByRate map[bw.Rate]float64
	// OTsPerNode is the default transponder pool size at each node, split
	// between 10G and 40G line rates.
	OTsPerNode int
	// RegensPerNode is the default regenerator pool size at each node.
	RegensPerNode int
	// OTOverride sets a specific pool size for individual nodes.
	OTOverride map[topo.NodeID]int
}

// DefaultConfig returns the plant sizing used by the experiments: an 80
// channel grid, 2500 km reach, 8 OTs and 2 REGENs per node.
func DefaultConfig() Config {
	return Config{
		Channels:      80,
		ReachKM:       2500,
		OTsPerNode:    8,
		RegensPerNode: 2,
	}
}

// Plant is the instantiated photonic layer: per-link spectra, per-node device
// banks, and fiber operational state.
type Plant struct {
	g       *topo.Graph
	cfg     Config
	spectra map[topo.LinkID]*Spectrum
	ots     map[topo.NodeID]*OTBank
	regens  map[topo.NodeID]*RegenBank
	down    map[topo.LinkID]bool
	// onLinkState, when non-nil, observes every SetLinkUp (see
	// SetOnLinkState).
	onLinkState func(id topo.LinkID, up bool)
	// usage[ch] counts the links currently carrying ch, maintained
	// incrementally on every Reserve/Release so most-used/least-used
	// wavelength assignment never rescans the network's spectra.
	usage []int32
	// broker, when non-nil, arbitrates channels shared with other plants
	// (see SetBroker).
	broker Broker
}

// Broker arbitrates spectrum that is shared beyond one plant — in the sharded
// controller every shard holds a replica of the photonic plant, and the
// cross-shard coordinator implements Broker to keep two shards from lighting
// the same wavelength on the same fiber. ClaimChannel may veto a Reserve (the
// hard guarantee); MaskForeign removes channels claimed elsewhere from a
// continuity bitset so searches rarely pick a channel the claim would veto.
type Broker interface {
	ClaimChannel(link topo.LinkID, ch Channel, owner string) error
	ReleaseChannel(link topo.LinkID, ch Channel)
	MaskForeign(link topo.LinkID, words []uint64)
}

// NewPlant builds the photonic plant for g. Each node gets a transponder bank
// (half 10G, half 40G line rate, rounded so at least one of each when the
// pool allows) and a regenerator bank.
func NewPlant(g *topo.Graph, cfg Config) (*Plant, error) {
	if cfg.Channels <= 0 {
		return nil, fmt.Errorf("optics: config needs a positive channel count")
	}
	if cfg.ReachKM <= 0 {
		return nil, fmt.Errorf("optics: config needs a positive reach")
	}
	p := &Plant{
		g:       g,
		cfg:     cfg,
		spectra: make(map[topo.LinkID]*Spectrum),
		ots:     make(map[topo.NodeID]*OTBank),
		regens:  make(map[topo.NodeID]*RegenBank),
		down:    make(map[topo.LinkID]bool),
	}
	p.usage = make([]int32, cfg.Channels+1)
	for _, l := range g.Links() {
		s := NewSpectrum(cfg.Channels)
		s.onChange = p.noteChannel
		p.spectra[l.ID] = s
	}
	for _, n := range g.Nodes() {
		nOTs := cfg.OTsPerNode
		if v, ok := cfg.OTOverride[n.ID]; ok {
			nOTs = v
		}
		var ots []*OT
		for i := 0; i < nOTs; i++ {
			rate := bw.Rate10G
			if i%2 == 1 {
				rate = bw.Rate40G
			}
			ots = append(ots, &OT{
				ID:      fmt.Sprintf("OT-%s-%02d", n.ID, i),
				Node:    n.ID,
				MaxRate: rate,
			})
		}
		p.ots[n.ID] = NewOTBank(n.ID, ots)

		var rgs []*Regen
		for i := 0; i < cfg.RegensPerNode; i++ {
			rgs = append(rgs, &Regen{
				ID:      fmt.Sprintf("RG-%s-%02d", n.ID, i),
				Node:    n.ID,
				MaxRate: bw.Rate40G,
			})
		}
		p.regens[n.ID] = NewRegenBank(n.ID, rgs)
	}
	return p, nil
}

// Graph returns the underlying topology.
func (p *Plant) Graph() *topo.Graph { return p.g }

// ReachFor returns the optical reach for a line rate: the per-rate override
// when configured, the default otherwise. A zero rate always gets the
// default.
func (p *Plant) ReachFor(rate bw.Rate) float64 {
	if rate > 0 {
		if km, ok := p.cfg.ReachByRate[rate]; ok && km > 0 {
			return km
		}
	}
	return p.cfg.ReachKM
}

// Spectrum returns the wavelength occupancy of a link, or nil if unknown.
func (p *Plant) Spectrum(id topo.LinkID) *Spectrum { return p.spectra[id] }

// SetBroker installs (or, with nil, detaches) a cross-plant spectrum broker.
// Every spectrum gains a gate that claims the channel with the broker before
// reserving and releases the claim on Release; CommonFree additionally masks
// out channels claimed by foreign plants.
func (p *Plant) SetBroker(b Broker) {
	p.broker = b
	for id, s := range p.spectra {
		if b == nil {
			s.gate, s.ungate = nil, nil
			continue
		}
		link := id
		s.gate = func(ch Channel, owner string) error {
			return b.ClaimChannel(link, ch, owner)
		}
		s.ungate = func(ch Channel) { b.ReleaseChannel(link, ch) }
	}
}

// OTs returns the transponder bank at a node, or nil if unknown.
func (p *Plant) OTs(id topo.NodeID) *OTBank { return p.ots[id] }

// Regens returns the regenerator bank at a node, or nil if unknown.
func (p *Plant) Regens(id topo.NodeID) *RegenBank { return p.regens[id] }

// LinkUp reports whether a fiber is operational.
func (p *Plant) LinkUp(id topo.LinkID) bool { return !p.down[id] }

// SetLinkUp marks a fiber up or down (a fiber cut takes every wavelength on
// it with it; alarm generation is the alarms package's job).
func (p *Plant) SetLinkUp(id topo.LinkID, up bool) {
	if up {
		delete(p.down, id)
	} else {
		p.down[id] = true
	}
	if p.onLinkState != nil {
		p.onLinkState(id, up)
	}
}

// SetOnLinkState installs an observer called after every link state change
// (both failures and restorations) — the controller's path cache hangs its
// invalidation off this. A nil fn detaches the observer.
func (p *Plant) SetOnLinkState(fn func(id topo.LinkID, up bool)) { p.onLinkState = fn }

// DownLinks returns the currently failed links in sorted order.
func (p *Plant) DownLinks() []topo.LinkID {
	if len(p.down) == 0 {
		return nil
	}
	out := make([]topo.LinkID, 0, len(p.down))
	for id := range p.down {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// PathUp reports whether every link of the path is operational.
func (p *Plant) PathUp(path topo.Path) bool {
	for _, l := range path.Links {
		if !p.LinkUp(l) {
			return false
		}
	}
	return true
}

// noteChannel is the spectra's change observer: it keeps the global
// per-channel usage counters in step with every Reserve/Release.
func (p *Plant) noteChannel(ch Channel, reserved bool) {
	if reserved {
		p.usage[ch]++
	} else {
		p.usage[ch]--
	}
}

// ChannelUsage returns how many links currently carry ch — an O(1) read of
// the incrementally maintained counter (what most-used/least-used assignment
// consults).
func (p *Plant) ChannelUsage(ch Channel) int {
	if ch < 1 || int(ch) >= len(p.usage) {
		return 0
	}
	return int(p.usage[ch])
}

// ContinuityChannels returns the channels simultaneously free on every link
// of the given transparent segment (ascending). An unknown link yields nil.
func (p *Plant) ContinuityChannels(links []topo.LinkID) []Channel {
	f, ok := p.CommonFree(links)
	if !ok {
		return nil
	}
	out := f.Slice()
	f.Recycle()
	return out
}

// CommonFree computes the wavelength-continuity constraint for a segment as
// a bitset: one word-wise AND per link instead of per-channel map probes. It
// reports false when the segment is empty or references an unknown link. The
// returned set borrows pooled storage — call Recycle when done (dropping it
// is safe, merely garbage).
func (p *Plant) CommonFree(links []topo.LinkID) (FreeSet, bool) {
	if len(links) == 0 {
		return FreeSet{}, false
	}
	nw := (p.cfg.Channels + 63) / 64
	buf := getFreeWords(nw)
	for i := range buf {
		buf[i] = ^uint64(0)
	}
	for _, id := range links {
		s := p.spectra[id]
		if s == nil {
			putFreeWords(buf)
			return FreeSet{}, false
		}
		for w := range buf {
			buf[w] &^= s.words[w]
		}
		if p.broker != nil {
			p.broker.MaskForeign(id, buf)
		}
	}
	if tail := p.cfg.Channels & 63; tail != 0 {
		buf[nw-1] &= (1 << uint(tail)) - 1
	}
	return FreeSet{words: buf}, true
}
