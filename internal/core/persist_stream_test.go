package core

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"griphon/internal/journal"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

// TestStreamStateMatchesMarshal pins the streamed snapshot encoder to the
// canonical one-shot marshal: same state, byte-identical serialization. The
// replay and crash-harness comparisons all assume this equivalence.
func TestStreamStateMatchesMarshal(t *testing.T) {
	k := sim.NewKernel(21)
	store := openJournal(t, t.TempDir())
	defer store.Close()
	c, err := New(k, topo.Testbed(), Config{AutoRepair: true, Journal: store})
	if err != nil {
		t.Fatal(err)
	}
	runJournaledOps(t, k, c, 80)
	k.Run()

	st := c.captureState()
	want, err := json.Marshal(&st)
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := streamState(&got, &st); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got.Bytes()) {
		t.Fatalf("streamed state differs from marshal:\nmarshal: %s\nstream:  %s", want, got.Bytes())
	}

	// The empty state must stream identically too (all arrays omitted).
	empty := stateRec{}
	want2, _ := json.Marshal(&empty)
	var got2 bytes.Buffer
	if err := streamState(&got2, &empty); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want2, got2.Bytes()) {
		t.Fatalf("empty state streams as %s, want %s", got2.Bytes(), want2)
	}
}

// TestJSONEraDirUpgradesInPlace is the cross-era compatibility contract: a
// state directory written entirely in the legacy JSON encoding (snapshot and
// WAL records) keeps accepting binary appends after an upgrade, and the
// resulting mixed-format directory rehydrates byte-equal to the live state.
//
// testdata/json_era is such a directory, frozen: the last commit that still
// had a JSON frame writer ran runJournaledOps(60) on kernel seed 31 with
// AutoRepair and SnapshotEvery 16 into it, and durable_state.golden is the
// DurableState of that live controller at close.
func TestJSONEraDirUpgradesInPlace(t *testing.T) {
	src := filepath.Join("testdata", "json_era")
	legacyFrozen, err := os.ReadFile(filepath.Join(src, "durable_state.golden"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, name := range []string{"snapshot.db", "wal-00000002.log"} {
		b, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if b[8] != '{' { // first payload byte behind the 8-byte frame header
			t.Fatalf("fixture %s starts with %#x, want '{'", name, b[8])
		}
		if err := os.WriteFile(filepath.Join(dir, name), b, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// Upgrade: today's store on that directory. Snapshotting is disabled so the
	// legacy JSON snapshot stays on disk and the new records land as binary
	// WAL frames behind it — the mixed-format directory of interest.
	binStore, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	k2 := sim.NewKernel(32)
	c2, err := Rehydrate(k2, topo.Testbed(), Config{AutoRepair: true, Journal: binStore, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	got, err := c2.DurableState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(legacyFrozen, got) {
		t.Fatalf("legacy JSON dir rehydrated differently:\nlive:      %s\nrecovered: %s", legacyFrozen, got)
	}
	runJournaledOps(t, k2, c2, 40)
	k2.Run()
	checkInvariants(t, c2, -1)
	want, err := c2.DurableState()
	if err != nil {
		t.Fatal(err)
	}
	if err := binStore.Close(); err != nil {
		t.Fatal(err)
	}

	// Third era: recover the mixed directory.
	store3, err := journal.Open(dir, journal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer store3.Close()
	replayed, err := ReplayDurable(store3.Recovered())
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, replayed) {
		t.Fatalf("mixed-format replay diverges:\nlive:   %s\nreplay: %s", want, replayed)
	}
	k3 := sim.NewKernel(33)
	c3, err := Rehydrate(k3, topo.Testbed(), Config{AutoRepair: true, Journal: store3})
	if err != nil {
		t.Fatal(err)
	}
	got3, err := c3.DurableState()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(want, got3) {
		t.Fatalf("mixed-format dir rehydrated differently:\nlive:      %s\nrecovered: %s", want, got3)
	}
	checkInvariants(t, c3, -2)
}
