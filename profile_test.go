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
	topo := griphon.Backbone()
	net, err := griphon.New(topo, griphon.WithSeed(1), griphon.WithStateDir(b.TempDir()), griphon.WithFsync())
	if err != nil {
		b.Fatal(err)
	}
	defer net.Close()
	h := api.NewServer(net).Handler()
	post := func(path, body string) []byte {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("POST %s %s: %d %s", path, body, rec.Code, rec.Body.Bytes())
		}
		return rec.Body.Bytes()
	}
	cycle := func(tenant int, from, to string) {
		cust := fmt.Sprintf("tenant-%03d", tenant%64)
		var resp api.ConnectResponse
		reply := post("/api/v1/connect", fmt.Sprintf(`{"customer":%q,"from":%q,"to":%q,"rate":"1G"}`, cust, from, to))
		if err := json.Unmarshal(reply, &resp); err != nil || len(resp.Connections) != 1 {
			b.Fatalf("connect reply %s: %v", reply, err)
		}
		post("/api/v1/disconnect", fmt.Sprintf(`{"customer":%q,"id":%q}`, cust, resp.Connections[0].ID))
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
	for i := 0; i+1 < len(sites); i++ {
		cycle(0, sites[i], sites[i+1])
	}
	for i := 0; i < 256; i++ {
		cycle(i, pairs[i%len(pairs)][0], pairs[i%len(pairs)][1])
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := pairs[i%len(pairs)]
		cycle(i, p[0], p[1])
	}
}
