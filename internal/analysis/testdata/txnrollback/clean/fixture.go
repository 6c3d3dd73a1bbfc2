package fixture

import "griphon/internal/inventory"

type pool struct{ free []int }

func (p *pool) Acquire() (int, error) {
	if len(p.free) == 0 {
		return 0, errExhausted
	}
	id := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	return id, nil
}

func (p *pool) Release(id int) { p.free = append(p.free, id) }

type poolError string

func (e poolError) Error() string { return string(e) }

const errExhausted = poolError("pool exhausted")

// reserveProperly threads a live Txn and registers the undo.
func reserveProperly(t *inventory.Txn, p *pool) (int, error) {
	return inventory.Reserve(t, p.Acquire, p.Release)
}
