package optics

import (
	"math/bits"
	"sync"
)

// FreeSet is a bitset of channels simultaneously free on every link of a
// transparent segment — the result of Plant.CommonFree. Bit ch-1 set means
// channel ch is free on the whole segment. The zero value is an empty set.
type FreeSet struct {
	words []uint64
}

// wordsPool recycles continuity buffers; a segment query on the warm path
// then allocates nothing beyond its result.
var wordsPool = sync.Pool{New: func() any { return new([]uint64) }}

func getFreeWords(n int) []uint64 {
	p := wordsPool.Get().(*[]uint64)
	if cap(*p) < n {
		*p = make([]uint64, n)
	}
	return (*p)[:n]
}

func putFreeWords(w []uint64) {
	wordsPool.Put(&w)
}

// Recycle returns the set's storage to the pool. The set must not be used
// afterwards. Calling it on the zero value is a no-op.
func (f FreeSet) Recycle() {
	if f.words != nil {
		putFreeWords(f.words)
	}
}

// Empty reports whether no channel is free across the segment.
func (f FreeSet) Empty() bool {
	for _, w := range f.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Count returns the number of free channels.
func (f FreeSet) Count() int {
	n := 0
	for _, w := range f.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// First returns the lowest free channel (first-fit), or false if none.
func (f FreeSet) First() (Channel, bool) {
	for i, w := range f.words {
		if w != 0 {
			return Channel(i*64 + bits.TrailingZeros64(w) + 1), true
		}
	}
	return 0, false
}

// Nth returns the i-th free channel in ascending order (0-based), or false
// if fewer than i+1 channels are free.
func (f FreeSet) Nth(i int) (Channel, bool) {
	for w, word := range f.words {
		c := bits.OnesCount64(word)
		if i >= c {
			i -= c
			continue
		}
		for ; i > 0; i-- {
			word &= word - 1
		}
		return Channel(w*64 + bits.TrailingZeros64(word) + 1), true
	}
	return 0, false
}

// ForEach visits the free channels in ascending order until fn returns false.
func (f FreeSet) ForEach(fn func(Channel) bool) {
	for w, word := range f.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			if !fn(Channel(w*64 + b + 1)) {
				return
			}
			word &= word - 1
		}
	}
}

// Slice materialises the free channels in ascending order.
func (f FreeSet) Slice() []Channel {
	var out []Channel
	f.ForEach(func(ch Channel) bool {
		out = append(out, ch)
		return true
	})
	return out
}
