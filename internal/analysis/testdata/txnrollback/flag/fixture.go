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

// nilTxn reserves outside any transaction: nothing can roll it back.
func nilTxn(p *pool) (int, error) {
	return inventory.Reserve(nil, p.Acquire, p.Release) // want `inventory\.Reserve with a nil Txn`
}

// nilRelease registers no rollback: a leak the moment a later step fails.
func nilRelease(t *inventory.Txn, p *pool) (int, error) {
	return inventory.Reserve(t, p.Acquire, nil) // want `inventory\.Reserve with a nil release closure`
}
