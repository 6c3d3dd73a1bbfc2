// Package inventory provides the controller's resource-database mechanics:
// atomic multi-resource transactions with rollback, and a per-customer ledger
// enforcing quotas and isolation. The paper (§2.2, §4) makes the controller
// "responsible for keeping track of the available network resources in its
// database" and for "isolation of services across different CSPs"; this
// package is that bookkeeping, separated from orchestration so it can be
// tested exhaustively on its own.
package inventory

import "fmt"

// Txn accumulates reversible steps. A connection setup reserves an OT pair, a
// regen chain, a wavelength per segment, FXC ports and ODU slots; if any step
// fails, everything already taken must be returned. Txn makes that pattern
// mechanical: Do each step with its undo, Rollback on failure, Commit on
// success.
type Txn struct {
	undos []func()
	done  bool
}

// NewTxn returns an open transaction.
func NewTxn() *Txn { return &Txn{} }

// Do runs do; if it succeeds the undo is recorded for a future Rollback.
// Calling Do on a committed or rolled-back transaction panics: that is always
// a lifecycle bug.
func (t *Txn) Do(do func() error, undo func()) error {
	if t.done {
		panic("inventory: Do on a finished transaction")
	}
	if err := do(); err != nil {
		return err
	}
	if undo != nil {
		t.undos = append(t.undos, undo)
	}
	return nil
}

// Reserve is a convenience for steps that produce a value: it runs alloc and
// records release(value) as the undo.
func Reserve[T any](t *Txn, alloc func() (T, error), release func(T)) (T, error) {
	var got T
	err := t.Do(func() error {
		v, err := alloc()
		if err != nil {
			return err
		}
		got = v
		return nil
	}, nil)
	if err != nil {
		return got, err
	}
	v := got
	t.undos = append(t.undos, func() { release(v) })
	return got, nil
}

// Rollback undoes every recorded step in reverse order. It is a no-op on a
// committed transaction, so `defer txn.Rollback()` is safe.
func (t *Txn) Rollback() {
	if t.done {
		return
	}
	t.done = true
	for i := len(t.undos) - 1; i >= 0; i-- {
		t.undos[i]()
	}
	t.undos = nil
}

// Commit keeps every step. After Commit, Rollback does nothing.
func (t *Txn) Commit() {
	if t.done {
		panic("inventory: Commit on a finished transaction")
	}
	t.done = true
	t.undos = nil
}

// ErrQuota is wrapped by ledger admission failures.
var ErrQuota = fmt.Errorf("inventory: quota exceeded")
