// Package main holds one finding for each of the three dead-state checks
// that read a reference index, and two look-alikes none of them may report.
package main

// counter.hits is written on every call and read by nothing: write-only.
type counter struct {
	hits int
	name string
}

func (c *counter) hit() string {
	c.hits++
	return c.name
}

// Config.Unturned is a knob no code sets. Limits is set only through a
// nested selector, which counts.
type Config struct {
	Unturned int
	Limits   Limits
}

type Limits struct{ Max int }

func defaults() Config {
	var c Config
	c.Limits.Max = 8
	return c
}

// pairKey's fields are written and never selected, but a map key is read
// whole by every lookup.
type pairKey struct{ a, b string }

func distinct(pairs [][2]string) int {
	seen := map[pairKey]bool{}
	for _, p := range pairs {
		seen[pairKey{a: p[0], b: p[1]}] = true
	}
	return len(seen)
}

// onlyTested is called by its test and by nothing else.
func onlyTested() int { return 1 }

func main() {
	c := defaults()
	var n counter
	println(n.hit(), c.Unturned+c.Limits.Max, distinct(nil))
}
