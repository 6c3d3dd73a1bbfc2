package griphon_test

import (
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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
// a journaled, fsynced network over topo (churnNetwork), after 256 cycles of
// history.
func benchJournaled(b *testing.B, topo *griphon.Topology, primed bool, class func() (rate, protect string), refusals ...string) {
	net, _, churn := churnNetwork(b, b.TempDir(), topo, 64, primed, class, refusals)
	defer net.Close()
	for i := 0; i < 256; i++ {
		churn(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		churn(i)
	}
}

// churnNetwork opens a journaled, fsynced network over topo in dir, with
// opts, and returns it with its HTTP handler and churn: churn(i) is one
// connect and its disconnect through that handler, tenants and every ordered
// site pair taking turns. class gives each connect's rate and protection. When primed,
// it first cycles a 1G circuit over each neighbouring pair of the sorted
// sites, which builds the OTN pipes. A connect refused with a 409 whose text
// holds one of refusals is counted as the carrier's no and gets no
// disconnect; any other refusal fails.
func churnNetwork(b *testing.B, dir string, topo *griphon.Topology, tenants int, primed bool, class func() (rate, protect string), refusals []string, opts ...griphon.Option) (*griphon.Network, http.Handler, func(int)) {
	opts = append([]griphon.Option{griphon.WithSeed(1), griphon.WithStateDir(dir), griphon.WithFsync()}, opts...)
	net, err := griphon.New(topo, opts...)
	if err != nil {
		b.Fatal(err)
	}
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
		cust := fmt.Sprintf("tenant-%03d", tenant%tenants)
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
	if primed {
		for i := 0; i+1 < len(sites); i++ {
			cycle(0, sites[i], sites[i+1], "1G", "")
		}
	}
	return net, h, func(i int) {
		rate, protect := class()
		p := pairs[i%len(pairs)]
		cycle(i, p[0], p[1], rate, protect)
	}
}

// BenchmarkPortalRead is the daemon's read path under the portal-read
// benchmark workload, in one process:
//
//	go test -run=NONE -bench=PortalRead -cpuprofile cpu.prof .
//
// Set-up is that workload's: the primed backbone, 1 000 connect/disconnect
// cycles of 64 tenants as history (churnNetwork), then 30 tenants holding one
// live 1G circuit each between neighbouring sites. Each iteration is one GET
// through the network's HTTP handler, drawn from portal-read's mix:
// connections 40 %, bill, sla and events 15 % each, stats 10 %, topology 5 %.
// A listing, bill or report names a random tenant; events pages through the
// last eight entries of the audit log.
func BenchmarkPortalRead(b *testing.B) {
	const tenants, live = 64, 30
	topo := griphon.Backbone()
	net, h, churn := churnNetwork(b, b.TempDir(), topo, tenants, true, func() (string, string) { return "1G", "" }, nil)
	defer net.Close()
	for i := 0; i < 1000; i++ {
		churn(i)
	}
	sites := topo.Sites()
	for i := 0; i < live; i++ {
		from := i % (len(sites) - 1)
		body := fmt.Sprintf(`{"customer":"tenant-%03d","from":%q,"to":%q,"rate":"1G"}`, i, sites[from], sites[from+1])
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/connect", strings.NewReader(body)))
		if rec.Code != http.StatusOK {
			b.Fatalf("POST connect %s: %d %s", body, rec.Code, rec.Body)
		}
	}
	_, next := net.EventsSince(0)
	shared := map[string]*http.Request{}
	for _, path := range []string{"/api/v1/stats", "/api/v1/topology", fmt.Sprintf("/api/v1/events?since=%d", next-8)} {
		shared[path] = httptest.NewRequest(http.MethodGet, path, nil)
	}
	perTenant := func(route string) []*http.Request {
		out := make([]*http.Request, tenants)
		for i := range out {
			out[i] = httptest.NewRequest(http.MethodGet, fmt.Sprintf("/api/v1/%s?customer=tenant-%03d", route, i), nil)
		}
		return out
	}
	conns, bills, slas := perTenant("connections"), perTenant("bill"), perTenant("sla")
	events := shared[fmt.Sprintf("/api/v1/events?since=%d", next-8)]
	mix := [20][]*http.Request{
		conns, conns, conns, conns, conns, conns, conns, conns,
		bills, bills, bills,
		slas, slas, slas,
		{events}, {events}, {events},
		{shared["/api/v1/stats"]}, {shared["/api/v1/stats"]},
		{shared["/api/v1/topology"]},
	}
	rng := sim.NewRand(1)
	w := &discardWriter{}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		reqs := mix[rng.Intn(len(mix))]
		w.code = 0
		h.ServeHTTP(w, reqs[rng.Intn(len(reqs))])
		if w.code != http.StatusOK {
			b.Fatalf("GET answered %d", w.code)
		}
	}
}

// discardWriter is a ResponseWriter that keeps only the status, so that a
// benchmark measures the handler and not a recorder's buffer.
type discardWriter struct {
	h    http.Header
	code int
}

func (d *discardWriter) Header() http.Header {
	if d.h == nil {
		d.h = make(http.Header)
	}
	return d.h
}
func (d *discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardWriter) WriteHeader(code int)        { d.code = code }

// BenchmarkRecover is griphond's restart on churn-groomed's history at that
// workload's op cap, in one process:
//
//	go test -run=NONE -bench=Recover -cpuprofile cpu.prof .
//
// Set-up journals about 5 800 1G connect/disconnect cycles of 64 tenants on
// the backbone, once. Each iteration copies the state dir, untimed, and times
// griphon.New rebuilding the network from the copy.
func BenchmarkRecover(b *testing.B) {
	benchRecover(b, 1, 64, 5800)
}

// BenchmarkRecoverSharded is the same on sharded-tenants' history: about
// 4 000 cycles of 256 tenants on 4 shards, each shard rebuilt from its own
// journal.
func BenchmarkRecoverSharded(b *testing.B) {
	benchRecover(b, 4, 256, 4000)
}

func benchRecover(b *testing.B, shards, tenants, cycles int) {
	dir := b.TempDir()
	net, _, churn := churnNetwork(b, dir, griphon.Backbone(), tenants, true, func() (string, string) { return "1G", "" }, nil, griphon.WithShards(shards))
	for i := 0; i < cycles; i++ {
		churn(i)
	}
	if err := net.Close(); err != nil {
		b.Fatal(err)
	}
	run := filepath.Join(b.TempDir(), "run")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := os.RemoveAll(run); err != nil {
			b.Fatal(err)
		}
		if err := copyTree(run, dir); err != nil {
			b.Fatal(err)
		}
		topo := griphon.Backbone()
		b.StartTimer()
		net, err := griphon.New(topo, griphon.WithSeed(1), griphon.WithStateDir(run), griphon.WithFsync(), griphon.WithShards(shards))
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		if err := net.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
}

// copyTree copies the directory tree at src to dst.
func copyTree(dst, src string) error {
	return filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			return os.MkdirAll(filepath.Join(dst, rel), 0o755)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dst, rel), raw, 0o644)
	})
}
