package inventory

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"griphon/internal/bw"
)

func TestTxnCommitKeepsSteps(t *testing.T) {
	txn := NewTxn()
	undone := 0
	for i := 0; i < 3; i++ {
		if err := txn.Do(func() error { return nil }, func() { undone++ }); err != nil {
			t.Fatal(err)
		}
	}
	if len(txn.undos) != 3 {
		t.Errorf("steps = %d", len(txn.undos))
	}
	txn.Commit()
	txn.Rollback() // no-op after commit
	if undone != 0 {
		t.Errorf("undos ran after commit: %d", undone)
	}
	if !txn.done {
		t.Error("committed txn not finished")
	}
}

func TestTxnRollbackReverseOrder(t *testing.T) {
	txn := NewTxn()
	var order []int
	for i := 0; i < 3; i++ {
		i := i
		txn.Do(func() error { return nil }, func() { order = append(order, i) })
	}
	txn.Rollback()
	if len(order) != 3 || order[0] != 2 || order[1] != 1 || order[2] != 0 {
		t.Errorf("rollback order = %v, want [2 1 0]", order)
	}
	txn.Rollback() // idempotent
	if len(order) != 3 {
		t.Error("second rollback re-ran undos")
	}
}

func TestTxnDoFailureRecordsNothing(t *testing.T) {
	txn := NewTxn()
	boom := errors.New("boom")
	ran := false
	if err := txn.Do(func() error { return boom }, func() { ran = true }); err != boom {
		t.Fatalf("err = %v", err)
	}
	if len(txn.undos) != 0 {
		t.Error("failed step recorded an undo")
	}
	txn.Rollback()
	if ran {
		t.Error("undo of failed step ran")
	}
}

func TestTxnLifecyclePanics(t *testing.T) {
	txn := NewTxn()
	txn.Commit()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Do after Commit did not panic")
			}
		}()
		txn.Do(func() error { return nil }, nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double Commit did not panic")
			}
		}()
		txn.Commit()
	}()
}

func TestReserveHelper(t *testing.T) {
	txn := NewTxn()
	pool := []string{"a", "b"}
	alloc := func() (string, error) {
		if len(pool) == 0 {
			return "", errors.New("empty")
		}
		v := pool[0]
		pool = pool[1:]
		return v, nil
	}
	release := func(v string) { pool = append(pool, v) }

	v, err := Reserve(txn, alloc, release)
	if err != nil || v != "a" {
		t.Fatalf("Reserve = %q, %v", v, err)
	}
	if len(pool) != 1 {
		t.Error("alloc did not take from pool")
	}
	txn.Rollback()
	if len(pool) != 2 {
		t.Error("rollback did not return the resource")
	}

	txn2 := NewTxn()
	pool = nil
	if _, err := Reserve(txn2, alloc, release); err == nil {
		t.Error("Reserve from empty pool succeeded")
	}
	if len(txn2.undos) != 0 {
		t.Error("failed Reserve recorded an undo")
	}
}

// Property: a transaction that rolls back always returns a counter-style
// resource pool to its initial state, regardless of the op sequence.
func TestTxnBalanceProperty(t *testing.T) {
	prop := func(ops []uint8) bool {
		avail := 100
		txn := NewTxn()
		for _, op := range ops {
			n := int(op%5) + 1
			txn.Do(func() error {
				if avail < n {
					return errors.New("insufficient")
				}
				avail -= n
				return nil
			}, func() { avail += n })
		}
		txn.Rollback()
		return avail == 100
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestLedgerQuotaAdmission(t *testing.T) {
	l := NewLedger()
	l.SetQuota("csp1", Quota{MaxConnections: 2, MaxBandwidth: bw.Rate40G})
	if err := l.Admit("csp1", bw.Rate10G); err != nil {
		t.Fatal(err)
	}
	if err := l.Admit("csp1", bw.Rate10G); err != nil {
		t.Fatal(err)
	}
	if err := l.Admit("csp1", bw.Rate1G); !errors.Is(err, ErrQuota) {
		t.Errorf("third connection err = %v, want quota error", err)
	}
	u := l.UsageOf("csp1")
	if u.Connections != 2 || u.Bandwidth != 20*bw.Gbps {
		t.Errorf("usage = %+v", u)
	}

	l.SetQuota("csp2", Quota{MaxBandwidth: bw.Rate10G})
	if err := l.Admit("csp2", bw.Rate40G); !errors.Is(err, ErrQuota) {
		t.Errorf("bandwidth quota err = %v", err)
	}
	if l.UsageOf("csp2").Connections != 0 {
		t.Error("failed admit recorded usage")
	}

	// Unlimited customer.
	for i := 0; i < 50; i++ {
		if err := l.Admit("csp3", bw.Rate40G); err != nil {
			t.Fatalf("unlimited admit %d: %v", i, err)
		}
	}
}

func TestLedgerAdmitValidation(t *testing.T) {
	l := NewLedger()
	if err := l.Admit("", bw.Rate1G); err == nil {
		t.Error("empty customer accepted")
	}
	if err := l.Admit("c", 0); err == nil {
		t.Error("zero rate accepted")
	}
}

func TestLedgerDischarge(t *testing.T) {
	l := NewLedger()
	l.Admit("c", bw.Rate10G)
	if err := l.Discharge("c", bw.Rate10G); err != nil {
		t.Fatal(err)
	}
	u := l.UsageOf("c")
	if u.Connections != 0 || u.Bandwidth != 0 {
		t.Errorf("usage after discharge = %+v", u)
	}
	if err := l.Discharge("c", bw.Rate10G); err == nil {
		t.Error("discharge underflow accepted")
	}
}

func TestLedgerResize(t *testing.T) {
	l := NewLedger()
	l.SetQuota("c", Quota{MaxConnections: 1, MaxBandwidth: bw.Rate10G})
	l.Admit("c", bw.Rate1G)
	if err := l.Resize("c", bw.Rate2G5-bw.Rate1G); err != nil {
		t.Fatalf("grow under MaxConnections 1: %v", err)
	}
	if u := l.UsageOf("c"); u.Connections != 1 || u.Bandwidth != bw.Rate2G5 {
		t.Errorf("usage after grow = %+v", u)
	}
	if err := l.Resize("c", bw.Rate10G); !errors.Is(err, ErrQuota) {
		t.Errorf("grow past MaxBandwidth err = %v, want quota error", err)
	}
	if err := l.Resize("c", -bw.Rate10G); err == nil {
		t.Error("resize underflow accepted")
	}
	if u := l.UsageOf("c"); u.Connections != 1 || u.Bandwidth != bw.Rate2G5 {
		t.Errorf("failed resizes recorded usage: %+v", u)
	}
}

func TestLedgerIsolation(t *testing.T) {
	l := NewLedger()
	if err := l.Claim("csp1", "ot:OT-I-00"); err != nil {
		t.Fatal(err)
	}
	if err := l.Claim("csp2", "ot:OT-I-00"); err == nil {
		t.Error("cross-customer claim accepted — isolation broken")
	}
	if err := l.Verify("csp1", "ot:OT-I-00"); err != nil {
		t.Errorf("owner verify failed: %v", err)
	}
	if err := l.Verify("csp2", "ot:OT-I-00"); err == nil {
		t.Error("non-owner verify passed")
	}
	if err := l.Verify("csp1", "ot:missing"); err == nil {
		t.Error("unknown resource verify passed")
	}
	if l.owners["ot:OT-I-00"] != "csp1" {
		t.Errorf("OwnerOf = %s", l.owners["ot:OT-I-00"])
	}
	if err := l.Release("csp2", "ot:OT-I-00"); err == nil {
		t.Error("non-owner release accepted")
	}
	if err := l.Release("csp1", "ot:OT-I-00"); err != nil {
		t.Fatal(err)
	}
	if l.owners["ot:OT-I-00"] != "" {
		t.Error("release did not clear owner")
	}
	if err := l.Claim("", "k"); err == nil {
		t.Error("empty customer claim accepted")
	}
	if err := l.Claim("c", ""); err == nil {
		t.Error("empty key claim accepted")
	}
}

func TestLedgerCustomers(t *testing.T) {
	l := NewLedger()
	l.SetQuota("b", Quota{})
	l.Admit("a", bw.Rate1G)
	got := l.Customers()
	if len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Customers = %v", got)
	}
}

// Property: admit/discharge sequences never drive usage negative and always
// sum correctly.
func TestLedgerAccountingProperty(t *testing.T) {
	prop := func(ops []uint8) bool {
		l := NewLedger()
		var conns int
		var total bw.Rate
		for i, op := range ops {
			c := Customer(fmt.Sprintf("c%d", op%3))
			r := bw.Rate(int64(op%4+1)) * bw.Gbps
			if op%2 == 0 {
				if l.Admit(c, r) == nil {
					conns++
					total += r
				}
			} else {
				if l.Discharge(c, r) == nil {
					conns--
					total -= r
				}
			}
			_ = i
			var gotConns int
			var gotTotal bw.Rate
			for _, cu := range l.Customers() {
				u := l.UsageOf(cu)
				if u.Connections < 0 || u.Bandwidth < 0 {
					return false
				}
				gotConns += u.Connections
				gotTotal += u.Bandwidth
			}
			if gotConns != conns || gotTotal != total {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
