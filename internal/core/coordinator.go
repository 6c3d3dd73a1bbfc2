package core

// Cross-shard coordination for the sharded control plane. Each shard of a
// ShardSet is a full Controller over its own replica of the photonic plant,
// so two shards could light the same wavelength on the same fiber. The
// Coordinator is the single arbiter for that one genuinely shared resource —
// spectrum on shared links — and nothing else: quotas, connections,
// transponders, OTN pipes and bookings are wholly shard-local (a pipe's
// shared part is its carrier wavelength, claimed here like any other).
//
// A claim is one bit per (link, channel) in the union mask and in the owning
// shard's mask. The Coordinator is the only mutex-guarded state shared
// between shard event loops; every method holds the lock for a few word
// operations and never blocks on the simulation.

import (
	"fmt"
	"math/bits"
	"sort"
	"sync"

	"griphon/internal/optics"
	"griphon/internal/topo"
)

// Coordinator brokers spectrum between the shards of a ShardSet. Safe for
// concurrent use by multiple shard drivers.
type Coordinator struct {
	mu sync.Mutex

	channels int // grid size; sizes the per-link claim masks

	// all[link] is the union of claimed channels on a link across every
	// shard; own[shard][link] is one shard's slice of it. MaskForeign
	// computes all&^own so a shard's continuity searches skip channels the
	// gate would veto anyway.
	all map[topo.LinkID][]uint64
	own map[int]map[topo.LinkID][]uint64

	// violations records release inconsistencies (a shard releasing a
	// channel it does not hold); surfaced by the cross-shard audit sweep.
	violations []string
}

// NewCoordinator returns a coordinator for plants with the given DWDM grid
// size.
func NewCoordinator(channels int) *Coordinator {
	return &Coordinator{
		channels: channels,
		all:      make(map[topo.LinkID][]uint64),
		own:      make(map[int]map[topo.LinkID][]uint64),
	}
}

func (co *Coordinator) words(m map[topo.LinkID][]uint64, link topo.LinkID) []uint64 {
	w := m[link]
	if w == nil {
		w = make([]uint64, (co.channels+63)/64)
		m[link] = w
	}
	return w
}

// chanBit locates a channel in a claim mask.
func chanBit(ch optics.Channel) (word int, bit uint64) {
	return int(ch-1) >> 6, uint64(1) << uint((ch-1)&63)
}

// holds reports whether a shard's mask has (link, ch) set. Caller holds mu.
func (co *Coordinator) holds(shard int, link topo.LinkID, ch optics.Channel) bool {
	w, bit := chanBit(ch)
	own := co.own[shard][link]
	return w < len(own) && own[w]&bit != 0
}

// claimChannel registers (link, ch) to a shard, failing if any shard —
// another or the caller itself — already holds it.
func (co *Coordinator) claimChannel(shard int, link topo.LinkID, ch optics.Channel) error {
	co.mu.Lock()
	defer co.mu.Unlock()
	w, bit := chanBit(ch)
	all := co.words(co.all, link)
	if all[w]&bit != 0 {
		holder := -1
		for s := range co.own {
			if co.holds(s, link, ch) {
				holder = s
				break
			}
		}
		return fmt.Errorf("core: cross-shard spectrum conflict: channel %d on %s already owned by shard-%d", ch, link, holder)
	}
	ownm := co.own[shard]
	if ownm == nil {
		ownm = make(map[topo.LinkID][]uint64)
		co.own[shard] = ownm
	}
	all[w] |= bit
	co.words(ownm, link)[w] |= bit
	return nil
}

// releaseChannel retires a shard's claim on (link, ch). A release that does
// not match a claim is recorded as a violation for the audit sweep.
func (co *Coordinator) releaseChannel(shard int, link topo.LinkID, ch optics.Channel) {
	co.mu.Lock()
	defer co.mu.Unlock()
	if !co.holds(shard, link, ch) {
		co.violations = append(co.violations, fmt.Sprintf("shard-%d release of channel %d on %s: not the owner", shard, ch, link))
		return
	}
	w, bit := chanBit(ch)
	co.all[link][w] &^= bit
	co.own[shard][link][w] &^= bit
}

// maskForeign clears, from a continuity bitset, every channel on link that a
// different shard has claimed.
func (co *Coordinator) maskForeign(shard int, link topo.LinkID, words []uint64) {
	co.mu.Lock()
	defer co.mu.Unlock()
	all := co.all[link]
	if all == nil {
		return
	}
	var own []uint64
	if ownm := co.own[shard]; ownm != nil {
		own = ownm[link]
	}
	for w := range words {
		if w >= len(all) {
			break
		}
		foreign := all[w]
		if own != nil && w < len(own) {
			foreign &^= own[w]
		}
		words[w] &^= foreign
	}
}

// ownsChannel reports whether a shard holds the coordinator claim on
// (link, ch) — the backing the cross-shard audit demands for every channel a
// shard's plant has lit.
func (co *Coordinator) ownsChannel(shard int, link topo.LinkID, ch optics.Channel) bool {
	co.mu.Lock()
	defer co.mu.Unlock()
	return co.holds(shard, link, ch)
}

// shardClaims returns a shard's live claims as "<link>:<ch>", sorted.
func (co *Coordinator) shardClaims(shard int) []string {
	co.mu.Lock()
	defer co.mu.Unlock()
	var out []string
	for link, words := range co.own[shard] {
		for w, word := range words {
			for ; word != 0; word &= word - 1 {
				out = append(out, fmt.Sprintf("%s:%d", link, w*64+bits.TrailingZeros64(word)+1))
			}
		}
	}
	sort.Strings(out)
	return out
}

// Violations returns the recorded claim/release inconsistencies, sorted.
func (co *Coordinator) Violations() []string {
	co.mu.Lock()
	defer co.mu.Unlock()
	out := append([]string(nil), co.violations...)
	sort.Strings(out)
	return out
}

// shardBroker is one shard's view of the coordinator, implementing
// optics.Broker for that shard's plant.
type shardBroker struct {
	co    *Coordinator
	shard int
}

func (b shardBroker) ClaimChannel(link topo.LinkID, ch optics.Channel, owner string) error {
	return b.co.claimChannel(b.shard, link, ch)
}

func (b shardBroker) ReleaseChannel(link topo.LinkID, ch optics.Channel) {
	b.co.releaseChannel(b.shard, link, ch)
}

func (b shardBroker) MaskForeign(link topo.LinkID, words []uint64) {
	b.co.maskForeign(b.shard, link, words)
}

// Broker returns the optics.Broker view of the coordinator for one shard.
func (co *Coordinator) Broker(shard int) optics.Broker {
	return shardBroker{co: co, shard: shard}
}
