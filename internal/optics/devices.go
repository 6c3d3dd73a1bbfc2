package optics

import (
	"fmt"
	"sort"

	"griphon/internal/bw"
	"griphon/internal/topo"
)

// OT is a wavelength-tunable optical transponder installed at a ROADM
// add/drop port. Because the ROADM ports are colorless and non-directional
// (paper §2.1), any OT can be tuned to any channel and steered onto any of
// its node's fiber degrees — which is exactly what makes pooled, dynamically
// shared transponders viable.
type OT struct {
	ID   string
	Node topo.NodeID
	// MaxRate is the OT's line rate; it can carry any client at or below
	// this rate.
	MaxRate bw.Rate
}

// Regen is an optical regenerator (back-to-back OT pair) parked at an
// intermediate ROADM, used when a path exceeds optical reach. A regenerator
// terminates the light, so the wavelength may change across it.
type Regen struct {
	ID   string
	Node topo.NodeID
	// MaxRate bounds the client rate the regenerator can reproduce.
	MaxRate bw.Rate
}

// devicePool is a per-node pool of identical-role devices with best-fit
// allocation by rate.
type devicePool[T any] struct {
	free  []*T
	inUse map[string]*T
}

func newDevicePool[T any]() *devicePool[T] {
	return &devicePool[T]{inUse: make(map[string]*T)}
}

// OTBank pools the transponders at one node.
type OTBank struct {
	node topo.NodeID
	pool *devicePool[OT]
}

// NewOTBank creates a bank holding the given transponders.
func NewOTBank(node topo.NodeID, ots []*OT) *OTBank {
	b := &OTBank{node: node, pool: newDevicePool[OT]()}
	b.pool.free = append(b.pool.free, ots...)
	b.sortFree()
	return b
}

func (b *OTBank) sortFree() {
	sort.Slice(b.pool.free, func(i, j int) bool {
		if b.pool.free[i].MaxRate != b.pool.free[j].MaxRate {
			return b.pool.free[i].MaxRate < b.pool.free[j].MaxRate
		}
		return b.pool.free[i].ID < b.pool.free[j].ID
	})
}

// Free returns the number of available transponders.
func (b *OTBank) Free() int { return len(b.pool.free) }

// InUse returns the number of allocated transponders.
func (b *OTBank) InUse() int { return len(b.pool.inUse) }

// Total returns the bank size.
func (b *OTBank) Total() int { return b.Free() + b.InUse() }

// Alloc takes the smallest free transponder whose line rate can carry rate
// (best fit, so a 1G request does not burn a 40G OT while a 10G one idles).
func (b *OTBank) Alloc(rate bw.Rate) (*OT, error) {
	for i, ot := range b.pool.free {
		if ot.MaxRate >= rate {
			b.pool.free = append(b.pool.free[:i], b.pool.free[i+1:]...)
			b.pool.inUse[ot.ID] = ot
			return ot, nil
		}
	}
	return nil, fmt.Errorf("optics: no free OT at %s for rate %v", b.node, rate)
}

// Take allocates the free transponder with exactly the given ID. Recovery
// uses it to re-pin the same device a journaled connection held, so the
// rebuilt pool is indistinguishable from the one the crashed process lost.
func (b *OTBank) Take(id string) (*OT, error) {
	for i, ot := range b.pool.free {
		if ot.ID == id {
			b.pool.free = append(b.pool.free[:i], b.pool.free[i+1:]...)
			b.pool.inUse[ot.ID] = ot
			return ot, nil
		}
	}
	return nil, fmt.Errorf("optics: OT %s is not free at %s", id, b.node)
}

// Release returns a transponder to the pool. Releasing an unknown or already
// free OT is an error.
func (b *OTBank) Release(ot *OT) error {
	if ot == nil {
		return fmt.Errorf("optics: releasing nil OT")
	}
	if _, ok := b.pool.inUse[ot.ID]; !ok {
		return fmt.Errorf("optics: OT %s is not allocated at %s", ot.ID, b.node)
	}
	delete(b.pool.inUse, ot.ID)
	b.pool.free = append(b.pool.free, ot)
	b.sortFree()
	return nil
}

// RegenBank pools the regenerators at one node; its semantics mirror OTBank.
type RegenBank struct {
	node topo.NodeID
	pool *devicePool[Regen]
}

// NewRegenBank creates a bank holding the given regenerators.
func NewRegenBank(node topo.NodeID, regens []*Regen) *RegenBank {
	b := &RegenBank{node: node, pool: newDevicePool[Regen]()}
	b.pool.free = append(b.pool.free, regens...)
	b.sortFree()
	return b
}

func (b *RegenBank) sortFree() {
	sort.Slice(b.pool.free, func(i, j int) bool {
		if b.pool.free[i].MaxRate != b.pool.free[j].MaxRate {
			return b.pool.free[i].MaxRate < b.pool.free[j].MaxRate
		}
		return b.pool.free[i].ID < b.pool.free[j].ID
	})
}

// Free returns the number of available regenerators.
func (b *RegenBank) Free() int { return len(b.pool.free) }

// InUse returns the number of allocated regenerators.
func (b *RegenBank) InUse() int { return len(b.pool.inUse) }

// Total returns the bank size.
func (b *RegenBank) Total() int { return b.Free() + b.InUse() }

// Alloc takes the smallest free regenerator that can carry rate.
func (b *RegenBank) Alloc(rate bw.Rate) (*Regen, error) {
	for i, rg := range b.pool.free {
		if rg.MaxRate >= rate {
			b.pool.free = append(b.pool.free[:i], b.pool.free[i+1:]...)
			b.pool.inUse[rg.ID] = rg
			return rg, nil
		}
	}
	return nil, fmt.Errorf("optics: no free regen at %s for rate %v", b.node, rate)
}

// Take allocates the free regenerator with exactly the given ID; the
// recovery analogue of OTBank.Take.
func (b *RegenBank) Take(id string) (*Regen, error) {
	for i, rg := range b.pool.free {
		if rg.ID == id {
			b.pool.free = append(b.pool.free[:i], b.pool.free[i+1:]...)
			b.pool.inUse[rg.ID] = rg
			return rg, nil
		}
	}
	return nil, fmt.Errorf("optics: regen %s is not free at %s", id, b.node)
}

// Release returns a regenerator to the pool.
func (b *RegenBank) Release(rg *Regen) error {
	if rg == nil {
		return fmt.Errorf("optics: releasing nil regen")
	}
	if _, ok := b.pool.inUse[rg.ID]; !ok {
		return fmt.Errorf("optics: regen %s is not allocated at %s", rg.ID, b.node)
	}
	delete(b.pool.inUse, rg.ID)
	b.pool.free = append(b.pool.free, rg)
	b.sortFree()
	return nil
}
