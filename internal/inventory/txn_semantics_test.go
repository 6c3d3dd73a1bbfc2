package inventory

import (
	"errors"
	"testing"
)

// These tests pin the transaction lifecycle contract the txnrollback and
// leakpath analyzers (internal/analysis) assume when they push releases into
// Txn rollback closures: undo order is LIFO, a finished transaction refuses new
// work loudly, and a committed transaction can never fire an undo.

func TestTxnDoAfterRollbackPanics(t *testing.T) {
	txn := NewTxn()
	txn.Rollback()
	defer func() {
		if recover() == nil {
			t.Error("Do after Rollback did not panic")
		}
	}()
	txn.Do(func() error { return nil }, nil)
}

func TestTxnCommitAfterRollbackPanics(t *testing.T) {
	txn := NewTxn()
	txn.Rollback()
	defer func() {
		if recover() == nil {
			t.Error("Commit after Rollback did not panic")
		}
	}()
	txn.Commit()
}

func TestTxnCommittedNeverInvokesRollbacks(t *testing.T) {
	txn := NewTxn()
	fired := 0
	for i := 0; i < 3; i++ {
		if err := txn.Do(func() error { return nil }, func() { fired++ }); err != nil {
			t.Fatalf("Do: %v", err)
		}
	}
	txn.Commit()
	// Rollback on a committed transaction is a documented no-op (so
	// `defer txn.Rollback()` is safe); the undos must stay un-run.
	txn.Rollback()
	txn.Rollback()
	if fired != 0 {
		t.Errorf("committed transaction fired %d undos, want 0", fired)
	}
	if !txn.done {
		t.Error("committed transaction does not report Finished")
	}
}

func TestTxnDoubleRollbackRunsUndosOnce(t *testing.T) {
	txn := NewTxn()
	fired := 0
	if err := txn.Do(func() error { return nil }, func() { fired++ }); err != nil {
		t.Fatalf("Do: %v", err)
	}
	txn.Rollback()
	txn.Rollback()
	if fired != 1 {
		t.Errorf("undo ran %d times across a double Rollback, want 1", fired)
	}
}

// TestTxnLIFOAcrossDoAndReserve interleaves both step-recording forms and
// checks one LIFO order covers them — the property the controller's setup
// path depends on when spectrum, ROADM and ledger steps mix.
func TestTxnLIFOAcrossDoAndReserve(t *testing.T) {
	txn := NewTxn()
	var order []string
	if err := txn.Do(func() error { return nil }, func() { order = append(order, "do1") }); err != nil {
		t.Fatalf("Do: %v", err)
	}
	if _, err := Reserve(txn, func() (int, error) { return 7, nil }, func(int) {
		order = append(order, "reserve")
	}); err != nil {
		t.Fatalf("Reserve: %v", err)
	}
	if err := txn.Do(func() error { return nil }, func() { order = append(order, "do2") }); err != nil {
		t.Fatalf("Do: %v", err)
	}
	txn.Rollback()
	want := []string{"do2", "reserve", "do1"}
	if len(order) != len(want) {
		t.Fatalf("rollback ran %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("rollback order %v, want %v", order, want)
		}
	}
}

// TestReserveReleaseGetsAllocatedValue pins that the release closure receives
// exactly the value alloc produced, captured at reservation time.
func TestReserveReleaseGetsAllocatedValue(t *testing.T) {
	txn := NewTxn()
	next := 41
	var released []int
	alloc := func() (int, error) { next++; return next, nil }
	release := func(v int) { released = append(released, v) }
	a, err := Reserve(txn, alloc, release)
	if err != nil || a != 42 {
		t.Fatalf("Reserve = %d, %v", a, err)
	}
	b, err := Reserve(txn, alloc, release)
	if err != nil || b != 43 {
		t.Fatalf("Reserve = %d, %v", b, err)
	}
	txn.Rollback()
	if len(released) != 2 || released[0] != 43 || released[1] != 42 {
		t.Errorf("released %v, want [43 42]", released)
	}
}

func TestReserveOnFinishedTxnPanics(t *testing.T) {
	txn := NewTxn()
	txn.Commit()
	defer func() {
		if recover() == nil {
			t.Error("Reserve on a committed transaction did not panic")
		}
	}()
	_, _ = Reserve(txn, func() (int, error) { return 0, nil }, func(int) {})
}

func TestReserveFailedAllocLeavesTxnUsable(t *testing.T) {
	txn := NewTxn()
	boom := errors.New("exhausted")
	if _, err := Reserve(txn, func() (int, error) { return 0, boom }, func(int) {}); !errors.Is(err, boom) {
		t.Fatalf("Reserve error = %v, want %v", err, boom)
	}
	if txn.done {
		t.Error("failed Reserve finished the transaction")
	}
	// The transaction must still accept and roll back further steps.
	fired := false
	if err := txn.Do(func() error { return nil }, func() { fired = true }); err != nil {
		t.Fatalf("Do after failed Reserve: %v", err)
	}
	txn.Rollback()
	if !fired {
		t.Error("undo recorded after a failed Reserve did not run on rollback")
	}
}
