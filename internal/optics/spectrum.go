// Package optics models the photonic plant of the DWDM layer: the wavelength
// grid on every fiber, tunable optical transponders (OTs) and regenerators
// (REGENs) pooled at each ROADM node, optical reach, and fiber operational
// state. It owns physical-resource accounting; path selection lives in
// internal/rwa and orchestration in internal/core.
package optics

import (
	"fmt"
	"math/bits"
)

// Channel is a DWDM grid channel number, 1-based. Channel 0 is invalid.
type Channel int

// Spectrum tracks wavelength occupancy on one fiber pair. A modern DWDM
// system carries 40–100 channels (paper §2.1); each channel is either free or
// owned by exactly one connection.
//
// Occupancy is a []uint64 bitset (bit ch-1 of word (ch-1)/64 set = occupied)
// so continuity intersections reduce to word-wise ANDs; the owner map is kept
// only for diagnostics (Owner) and double-reserve error messages.
type Spectrum struct {
	channels int
	words    []uint64
	used     int
	owner    map[Channel]string
	// onChange, when set, observes every successful Reserve/Release — the
	// Plant uses it to maintain global per-channel usage counters.
	onChange func(ch Channel, reserved bool)
	// gate, when set, can veto a Reserve after local validation but before
	// any mutation — the hook a cross-shard coordinator uses to arbitrate
	// spectrum shared between control-plane shards. A gate error leaves the
	// spectrum untouched.
	gate func(ch Channel, owner string) error
	// ungate, when set, observes every successful Release so the gate's
	// bookkeeping can retire its claim.
	ungate func(ch Channel)
}

// NewSpectrum returns a spectrum with the given channel count.
func NewSpectrum(channels int) *Spectrum {
	if channels <= 0 {
		panic(fmt.Sprintf("optics: non-positive channel count %d", channels))
	}
	return &Spectrum{
		channels: channels,
		words:    make([]uint64, (channels+63)/64),
		owner:    make(map[Channel]string),
	}
}

// Used returns the number of occupied channels.
func (s *Spectrum) Used() int { return s.used }

// Owner returns the owner of ch, or "" if free or out of range.
func (s *Spectrum) Owner(ch Channel) string { return s.owner[ch] }

// Reserve marks ch as owned by owner. It fails on out-of-range or occupied
// channels and on an empty owner.
func (s *Spectrum) Reserve(ch Channel, owner string) error {
	if owner == "" {
		return fmt.Errorf("optics: empty owner")
	}
	if ch < 1 || int(ch) > s.channels {
		return fmt.Errorf("optics: channel %d outside 1..%d", ch, s.channels)
	}
	w, bit := (ch-1)>>6, uint64(1)<<uint((ch-1)&63)
	if s.words[w]&bit != 0 {
		return fmt.Errorf("optics: channel %d already owned by %s", ch, s.owner[ch])
	}
	if s.gate != nil {
		if err := s.gate(ch, owner); err != nil {
			return err
		}
	}
	s.words[w] |= bit
	s.used++
	s.owner[ch] = owner
	if s.onChange != nil {
		s.onChange(ch, true)
	}
	return nil
}

// Release frees ch. Releasing a free channel is an error: it indicates a
// double-release bug.
func (s *Spectrum) Release(ch Channel) error {
	if ch < 1 || int(ch) > s.channels {
		return fmt.Errorf("optics: releasing free channel %d", ch)
	}
	w, bit := (ch-1)>>6, uint64(1)<<uint((ch-1)&63)
	if s.words[w]&bit == 0 {
		return fmt.Errorf("optics: releasing free channel %d", ch)
	}
	s.words[w] &^= bit
	s.used--
	delete(s.owner, ch)
	if s.ungate != nil {
		s.ungate(ch)
	}
	if s.onChange != nil {
		s.onChange(ch, false)
	}
	return nil
}

// UsedChannels returns all occupied channels in ascending order.
func (s *Spectrum) UsedChannels() []Channel {
	out := make([]Channel, 0, s.used)
	for w, word := range s.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			out = append(out, Channel(w*64+b+1))
			word &= word - 1
		}
	}
	return out
}

// IntersectFree returns the channels free on every spectrum in the slice, in
// ascending order — the wavelength-continuity constraint for a transparent
// segment. With no spectra it returns nil. Spectra may differ in grid size;
// channels beyond a spectrum's grid count as not free.
func IntersectFree(spectra []*Spectrum) []Channel {
	if len(spectra) == 0 {
		return nil
	}
	minCh := spectra[0].channels
	for _, s := range spectra[1:] {
		if s.channels < minCh {
			minCh = s.channels
		}
	}
	var out []Channel
	for w := 0; w*64 < minCh; w++ {
		free := ^uint64(0)
		for _, s := range spectra {
			free &^= s.words[w]
		}
		if tail := minCh - w*64; tail < 64 {
			free &= (1 << uint(tail)) - 1
		}
		for free != 0 {
			b := bits.TrailingZeros64(free)
			out = append(out, Channel(w*64+b+1))
			free &= free - 1
		}
	}
	return out
}
