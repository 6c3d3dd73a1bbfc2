package griphon_test

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"griphon"
	"griphon/internal/api"
	"griphon/internal/sim"
)

// BenchmarkJournaledChurn is the daemon's request path under the
// churn-groomed benchmark workload, in one process so that it can be
// profiled without a daemon flag:
//
//	go test -run=NONE -bench=JournaledChurn -cpuprofile cpu.prof .
//	go tool pprof -top -cum cpu.prof
//
// Each iteration is one 1G connect and its disconnect through the HTTP
// handler of a journaled, fsynced backbone network, as griphond serves them.
// Set-up primes it as that workload does: one pipe per neighbouring pair of
// the sorted sites, then 256 cycles of history. Tenants and ordered site pairs
// cycle; every circuit is groomed onto the primed pipes.
func BenchmarkJournaledChurn(b *testing.B) {
	benchJournaled(b, griphon.Backbone(), true, func() (string, string) { return "1G", "" })
}

// BenchmarkJournaledWavelengthChurn is the same request path under the
// churn-wavelength workload:
//
//	go test -run=NONE -bench=JournaledWavelengthChurn -cpuprofile cpu.prof .
//
// Each iteration is one wavelength connect and its disconnect on the
// continental 75-PoP, 8-site mesh, in that workload's equal mix of 10G
// restorable, 10G 1+1, 40G restorable and 10G unprotected, after 256 cycles
// of the same as history. Like the workload it accepts the refusals the
// carrier gives by topology and under load: a 1+1 pair with no disjoint
// route, or two regenerators at a node both taken.
func BenchmarkJournaledWavelengthChurn(b *testing.B) {
	topo, err := griphon.Continental(75, 8, 1)
	if err != nil {
		b.Fatal(err)
	}
	classes := [][2]string{{"10G", "restore"}, {"10G", "1+1"}, {"40G", "restore"}, {"10G", "unprotected"}}
	rng := sim.NewRand(1)
	benchJournaled(b, topo, false, func() (string, string) {
		c := classes[rng.Intn(len(classes))]
		return c[0], c[1]
	}, "disjoint", "no free regen")
}

// benchJournaled times connect/disconnect cycles through the HTTP handler of
// a journaled, fsynced network over topo, 64 tenants and every ordered site
// pair taking turns. class gives each connect's rate and protection. When
// primed, set-up first cycles a 1G circuit over each neighbouring pair of the
// sorted sites, which builds the OTN pipes; then come 256 cycles of history.
// A connect refused with a 409 whose text holds one of refusals is counted
// as the carrier's no and gets no disconnect; any other refusal fails.
func benchJournaled(b *testing.B, topo *griphon.Topology, primed bool, class func() (rate, protect string), refusals ...string) {
	net, err := griphon.New(topo, griphon.WithSeed(1), griphon.WithStateDir(b.TempDir()), griphon.WithFsync())
	if err != nil {
		b.Fatal(err)
	}
	defer net.Close()
	h := api.NewServer(net).Handler()
	post := func(path, body string) (int, []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		return rec.Code, rec.Body.Bytes()
	}
	expected := func(reply []byte) bool {
		for _, frag := range refusals {
			if strings.Contains(string(reply), frag) {
				return true
			}
		}
		return false
	}
	cycle := func(tenant int, from, to, rate, protect string) {
		cust := fmt.Sprintf("tenant-%03d", tenant%64)
		body := fmt.Sprintf(`{"customer":%q,"from":%q,"to":%q,"rate":%q,"protection":%q}`, cust, from, to, rate, protect)
		code, reply := post("/api/v1/connect", body)
		if code == http.StatusConflict && expected(reply) {
			return
		}
		if code != http.StatusOK {
			b.Fatalf("POST connect %s: %d %s", body, code, reply)
		}
		var resp api.ConnectResponse
		if err := json.Unmarshal(reply, &resp); err != nil || len(resp.Connections) == 0 {
			b.Fatalf("connect reply %s: %v", reply, err)
		}
		body = fmt.Sprintf(`{"customer":%q,"id":%q}`, cust, resp.Connections[0].ID)
		if code, reply := post("/api/v1/disconnect", body); code != http.StatusOK {
			b.Fatalf("POST disconnect %s: %d %s", body, code, reply)
		}
	}
	sites := topo.Sites()
	var pairs [][2]string
	for _, a := range sites {
		for _, z := range sites {
			if a != z {
				pairs = append(pairs, [2]string{a, z})
			}
		}
	}
	churn := func(i int) {
		rate, protect := class()
		p := pairs[i%len(pairs)]
		cycle(i, p[0], p[1], rate, protect)
	}
	if primed {
		for i := 0; i+1 < len(sites); i++ {
			cycle(0, sites[i], sites[i+1], "1G", "")
		}
	}
	for i := 0; i < 256; i++ {
		churn(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn(i)
	}
}
