package inventory

import (
	"fmt"
	"sort"

	"griphon/internal/bw"
)

// Customer identifies a cloud service provider leasing GRIPhoN service.
type Customer string

// Quota bounds one customer's consumption. Zero fields are unlimited.
type Quota struct {
	// MaxConnections caps simultaneous connections.
	MaxConnections int
	// MaxBandwidth caps the sum of connection rates.
	MaxBandwidth bw.Rate
}

// Usage is a customer's current consumption.
type Usage struct {
	Connections int
	Bandwidth   bw.Rate
}

// Ledger tracks per-customer usage, enforces quotas, and guarantees resource
// isolation: a resource claimed by one customer cannot be touched by another.
type Ledger struct {
	quotas map[Customer]Quota
	usage  map[Customer]Usage
	owners map[string]Customer // resource key -> owning customer
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger {
	return &Ledger{
		quotas: make(map[Customer]Quota),
		usage:  make(map[Customer]Usage),
		owners: make(map[string]Customer),
	}
}

// SetQuota installs (or replaces) a customer's quota.
func (l *Ledger) SetQuota(c Customer, q Quota) { l.quotas[c] = q }

// QuotaOf returns the customer's quota (zero = unlimited).
func (l *Ledger) QuotaOf(c Customer) Quota { return l.quotas[c] }

// UsageOf returns the customer's current usage.
func (l *Ledger) UsageOf(c Customer) Usage { return l.usage[c] }

// Admit checks and records a new connection of the given rate. It fails,
// without recording anything, if either quota bound would be exceeded.
func (l *Ledger) Admit(c Customer, rate bw.Rate) error {
	if c == "" {
		return fmt.Errorf("inventory: empty customer")
	}
	if rate <= 0 {
		return fmt.Errorf("inventory: non-positive rate %v", rate)
	}
	q := l.quotas[c]
	u := l.usage[c]
	if q.MaxConnections > 0 && u.Connections+1 > q.MaxConnections {
		return fmt.Errorf("%w: %s at %d connections", ErrQuota, c, u.Connections)
	}
	if q.MaxBandwidth > 0 && u.Bandwidth+rate > q.MaxBandwidth {
		return fmt.Errorf("%w: %s at %v of %v", ErrQuota, c, u.Bandwidth, q.MaxBandwidth)
	}
	u.Connections++
	u.Bandwidth += rate
	l.usage[c] = u
	return nil
}

// Discharge reverses an Admit when a connection ends (or its setup fails).
func (l *Ledger) Discharge(c Customer, rate bw.Rate) error {
	u := l.usage[c]
	if u.Connections == 0 || u.Bandwidth < rate {
		return fmt.Errorf("inventory: discharge underflow for %s (%d conns, %v)", c, u.Connections, u.Bandwidth)
	}
	u.Connections--
	u.Bandwidth -= rate
	l.usage[c] = u
	return nil
}

// Resize moves an admitted connection's rate by delta without counting a
// connection. A growth fails, recording nothing, if it would exceed
// MaxBandwidth; a shrink below zero is an underflow.
func (l *Ledger) Resize(c Customer, delta bw.Rate) error {
	q := l.quotas[c]
	u := l.usage[c]
	if u.Bandwidth+delta < 0 {
		return fmt.Errorf("inventory: resize underflow for %s (%v by %v)", c, u.Bandwidth, delta)
	}
	if delta > 0 && q.MaxBandwidth > 0 && u.Bandwidth+delta > q.MaxBandwidth {
		return fmt.Errorf("%w: %s at %v of %v", ErrQuota, c, u.Bandwidth, q.MaxBandwidth)
	}
	u.Bandwidth += delta
	l.usage[c] = u
	return nil
}

// Claim records that a resource (by unique key, e.g. "ot:OT-I-03" or
// "conn:C42") belongs to a customer. Claiming a resource already owned by a
// different customer is an isolation violation and fails.
func (l *Ledger) Claim(c Customer, key string) error {
	if c == "" || key == "" {
		return fmt.Errorf("inventory: empty customer or key")
	}
	if cur, ok := l.owners[key]; ok {
		return fmt.Errorf("inventory: %s already owned by %s", key, cur)
	}
	l.owners[key] = c
	return nil
}

// Verify checks that customer c owns key — the isolation gate every
// customer-initiated mutation goes through.
func (l *Ledger) Verify(c Customer, key string) error {
	owner, ok := l.owners[key]
	if !ok {
		return fmt.Errorf("inventory: unknown resource %s", key)
	}
	if owner != c {
		return fmt.Errorf("inventory: %s belongs to %s, not %s", key, owner, c)
	}
	return nil
}

// Release drops a claim; the customer must own it.
func (l *Ledger) Release(c Customer, key string) error {
	if err := l.Verify(c, key); err != nil {
		return err
	}
	delete(l.owners, key)
	return nil
}

// Claims returns every claimed resource key, sorted — the enumeration
// invariant auditors sweep for leaked claims.
func (l *Ledger) Claims() []string {
	out := make([]string, 0, len(l.owners))
	for k := range l.owners {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// Customers returns every customer with recorded usage or quota, sorted.
func (l *Ledger) Customers() []Customer {
	set := map[Customer]bool{}
	for c := range l.quotas {
		set[c] = true
	}
	for c := range l.usage {
		set[c] = true
	}
	out := make([]Customer, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
