package core

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"griphon/internal/bw"
	"griphon/internal/fxc"
	"griphon/internal/optics"
	"griphon/internal/otn"
)

// TestAuditInvariantsDetectsLeaks plants one deliberate leak of each kind
// directly in the resource layers — behind the controller's back — and checks
// the auditor names it, then undoes the leak and checks the books balance
// again. This is the auditor's own regression test: a checker that cannot see
// a planted leak would give the chaos soak false confidence.
func TestAuditInvariantsDetectsLeaks(t *testing.T) {
	k, c := newTestbed(t, 501)
	mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-C", Rate: bw.Rate10G})
	pj, err := c.EnsurePipe("I", "III", otn.ODU2)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if pj.Err() != nil {
		t.Fatal(pj.Err())
	}
	auditClean(t, c)

	expectFinding := func(kind string) {
		t.Helper()
		for _, f := range c.AuditInvariants() {
			if f.Kind == kind {
				return
			}
		}
		t.Errorf("planted %s leak not detected; findings: %v", kind, c.AuditInvariants())
	}

	// 1. A wavelength reserved by nobody the controller knows.
	sp := c.Plant().Spectrum("I-II")
	if err := sp.Reserve(optics.Channel(5), "ghost"); err != nil {
		t.Fatal(err)
	}
	expectFinding("spectrum-owner")
	sp.Release(optics.Channel(5)) //lint:allow errcheck undoing the planted leak

	// 2. A transponder allocated outside any lightpath.
	ot, err := c.Plant().OTs("II").Alloc(bw.Rate10G)
	if err != nil {
		t.Fatal(err)
	}
	expectFinding("ot-count")
	c.Plant().OTs("II").Release(ot) //lint:allow errcheck undoing the planted leak

	// 3. OTN tributary slots held by a dead owner.
	pipe := c.fabric.Pipes()[0]
	if _, err := pipe.Reserve("ghost", 2); err != nil {
		t.Fatal(err)
	}
	expectFinding("pipe-owner")
	if _, err := pipe.ReleaseOwner("ghost"); err != nil {
		t.Fatal(err)
	}

	// 4. An FXC cross-connect with no connection behind it.
	sw := c.fxcs["I"]
	cp, err := sw.FreePort(fxc.Client)
	if err != nil {
		t.Fatal(err)
	}
	lnp, err := sw.FreePort(fxc.Line)
	if err != nil {
		t.Fatal(err)
	}
	if err := sw.Connect(cp, lnp, "ghost"); err != nil {
		t.Fatal(err)
	}
	expectFinding("fxc-owner")
	sw.Disconnect(cp) //lint:allow errcheck undoing the planted leak

	// 5. A ledger claim whose connection is gone.
	if err := c.ledger.Claim("x", "conn:ghost"); err != nil {
		t.Fatal(err)
	}
	expectFinding("ledger-claim")
	c.ledger.Release("x", "conn:ghost") //lint:allow errcheck undoing the planted leak

	// Every leak undone: the books balance again.
	auditClean(t, c)
}

// TestAuditFindingsDeterministicOrder pins the auditor's output order: the
// flight recorder diffs findings across runs, so two audits of the same state
// must produce identical, sorted reports. With a dozen planted violations the
// pre-fix map-order iteration produced a different permutation per call.
func TestAuditFindingsDeterministicOrder(t *testing.T) {
	_, c := newTestbed(t, 502)

	// A dozen live connections that hold no ledger claim, planted directly in
	// the connection index behind the controller's back.
	for i := 0; i < 12; i++ {
		id := ConnID(fmt.Sprintf("ghost-%02d", i))
		c.conns.insert(&Connection{ID: id, State: StateActive, Layer: LayerOTN})
	}

	claimFindings := func() []string {
		var out []string
		for _, f := range c.AuditInvariants() {
			if f.Kind == "ledger-claim" {
				out = append(out, f.Detail)
			}
		}
		return out
	}

	first := claimFindings()
	if len(first) != 12 {
		t.Fatalf("planted 12 claimless connections, auditor reported %d: %v", len(first), first)
	}
	if !sort.StringsAreSorted(first) {
		t.Errorf("ledger-claim findings not sorted by connection ID:\n%s", strings.Join(first, "\n"))
	}
	second := claimFindings()
	if !slices.Equal(first, second) {
		t.Errorf("two audits of identical state disagree on order:\n%v\nvs\n%v", first, second)
	}
}

// TestAuditReportsLedgerRelease: a ledger release that fails is recorded where
// it happens, and the audit names the connection. The rate of a live
// connection is discharged behind the controller's back, so the teardown's own
// discharge underflows.
func TestAuditReportsLedgerRelease(t *testing.T) {
	k, c := newTestbed(t, 7)
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate1G})
	if err := c.ledger.Discharge(conn.Customer, conn.Rate); err != nil {
		t.Fatal(err)
	}
	td, err := c.Disconnect(conn.Customer, conn.ID)
	if err != nil {
		t.Fatal(err)
	}
	k.Run()
	if td.Err() != nil {
		t.Fatal(td.Err())
	}
	findings := c.AuditInvariants()
	if !slices.ContainsFunc(findings, func(f Finding) bool {
		return f.Kind == "ledger-release" && strings.Contains(f.Detail, string(conn.ID))
	}) {
		t.Errorf("no ledger-release finding naming %s; findings: %v", conn.ID, findings)
	}
}
