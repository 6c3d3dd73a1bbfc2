package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"griphon"
)

func newNet(t *testing.T) *griphon.Network {
	t.Helper()
	net, err := griphon.New(griphon.Testbed(), griphon.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// writeJSON renders what body appends and sends it: what a handler and its
// ack do with a value, minus the lock.
func writeJSON(t *testing.T, s *Server, w http.ResponseWriter, status int, body func([]byte) []byte) {
	rep := replyPool.Get().(*reply)
	defer rep.release()
	s.render(rep, status, body)
	if _, err := rep.send(w); err != nil {
		t.Fatal(err)
	}
}

// TestStaticBodiesMatchLegacy pins the pre-encoded mutation responses to the
// bytes marshaling the equivalent map produces — the reference the original
// handlers used.
func TestStaticBodiesMatchLegacy(t *testing.T) {
	for _, c := range []struct {
		body   []byte
		status string
	}{
		{bodyReleased, "released"},
		{bodyCut, "cut"},
		{bodyRepaired, "repaired"},
	} {
		want, err := json.Marshal(map[string]string{"status": c.status})
		if err != nil {
			t.Fatal(err)
		}
		want = append(want, '\n')
		if !bytes.Equal(c.body, want) {
			t.Errorf("static %q = %q, marshal renders %q", c.status, c.body, want)
		}
	}
}

// TestGETReadsCurrentState: repeated GETs of unchanged state answer the same
// bytes, and a GET after a mutation sees the new state.
func TestGETReadsCurrentState(t *testing.T) {
	srv := httptest.NewServer(NewServer(newNet(t)).Handler())
	defer srv.Close()

	get := func(path string) string {
		t.Helper()
		resp, err := http.Get(srv.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s = %d: %s", path, resp.StatusCode, b)
		}
		return string(b)
	}

	first := get("/api/v1/stats")
	second := get("/api/v1/stats")
	if first != second {
		t.Fatalf("stats of unchanged state differ:\n%s\n%s", first, second)
	}

	// The next GET after a mutation sees the new state.
	resp, err := http.Post(srv.URL+"/api/v1/advance", "application/json",
		strings.NewReader(`{"duration":"1h"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("advance = %d", resp.StatusCode)
	}
	if third := get("/api/v1/stats"); third == first {
		t.Fatal("stats unchanged after advancing the clock")
	}
	get("/api/v1/metrics")
	get("/api/v1/metrics")
}

// TestServerConcurrentRequests drives the handler from several goroutines at
// once, over a journaled, fsynced network. Every piece of server state is read
// and written under the one server mutex, while the replies' waits for the
// disk and their writes overlap outside it; the race detector (CI's -race job)
// is the first assertion. The second is the acknowledgement's promise: every
// connection a 200 named is there when the directory is opened again.
func TestServerConcurrentRequests(t *testing.T) {
	dir := t.TempDir()
	net := newDurableNet(t, dir)
	h := NewServer(net).Handler()
	var wg sync.WaitGroup
	acked := make(chan string, 4*5)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				reqs := []*http.Request{
					httptest.NewRequest(http.MethodGet, "/api/v1/connections?customer=acme", nil),
					httptest.NewRequest(http.MethodGet, "/api/v1/metrics", nil),
				}
				if i%10 == 0 {
					reqs = append(reqs, httptest.NewRequest(http.MethodPost, "/api/v1/connect",
						strings.NewReader(`{"customer":"acme","from":"DC-A","to":"DC-B","rate":"1G"}`)))
				}
				for _, req := range reqs {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					if rec.Code != http.StatusOK {
						t.Errorf("%s %s = %d: %s", req.Method, req.URL, rec.Code, rec.Body)
						continue
					}
					if req.Method != http.MethodPost {
						continue
					}
					var resp ConnectResponse
					if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
						t.Errorf("connect reply: %v", err)
					}
					for _, c := range resp.Connections {
						acked <- c.ID
					}
				}
			}
		}()
	}
	wg.Wait()
	close(acked)
	if err := net.Close(); err != nil {
		t.Fatal(err)
	}

	reopened := newDurableNet(t, dir)
	defer reopened.Close()
	n := 0
	for id := range acked {
		n++
		if conn := reopened.Conn(griphon.ConnID(id)); conn == nil || conn.State.String() != "active" {
			t.Errorf("acknowledged connection %s after reopening: %+v", id, conn)
		}
	}
	if n != 4*5 {
		t.Errorf("%d connections acknowledged, want %d", n, 4*5)
	}
}

// TestLegacyServerServesIdenticalBytes runs a scripted session and requires
// the responses to match testdata/scripted_session.golden byte for byte. The
// golden was written by the allocate-per-response json.Marshal encoder this
// server replaced (the last commit that had it, over the same nine requests):
// the pooled encoder and static bodies are an optimization, not a behavior
// change.
func TestLegacyServerServesIdenticalBytes(t *testing.T) {
	srv := httptest.NewServer(NewServer(newNet(t)).Handler())
	defer srv.Close()
	var got strings.Builder
	do := func(method, path, body string) {
		t.Helper()
		var resp *http.Response
		var err error
		if method == http.MethodGet {
			resp, err = http.Get(srv.URL + path)
		} else {
			resp, err = http.Post(srv.URL+path, "application/json", strings.NewReader(body))
		}
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "%d %s", resp.StatusCode, b)
	}
	do("POST", "/api/v1/connect", `{"customer":"acme","from":"DC-A","to":"DC-C","rate":"10G"}`)
	do("GET", "/api/v1/connections?customer=acme", "")
	do("GET", "/api/v1/connections?customer=acme", "")
	do("GET", "/api/v1/stats", "")
	do("GET", "/api/v1/topology", "")
	do("GET", "/api/v1/bill?customer=acme", "")
	do("POST", "/api/v1/connect", `{"customer":"acme","from":"bogus","to":"DC-C","rate":"10G"}`) // error path
	do("POST", "/api/v1/advance", `{"duration":"30m"}`)
	do("GET", "/api/v1/stats", "")
	want, err := os.ReadFile(filepath.Join("testdata", "scripted_session.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("scripted session moved:\n got: %s\nwant: %s", got.String(), want)
	}
}

// TestOversizedBodyRefused: a body past maxRequestBody gets 413 without being
// buffered whole, and the server keeps serving.
func TestOversizedBodyRefused(t *testing.T) {
	h := NewServer(newNet(t)).Handler()
	post := func(body string) int {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/connect", strings.NewReader(body)))
		return rec.Code
	}
	if got := post(strings.Repeat("x", 2*maxRequestBody)); got != http.StatusRequestEntityTooLarge {
		t.Fatalf("2 MiB body = %d, want 413", got)
	}
	if got := post("not json"); got != http.StatusBadRequest {
		t.Fatalf("malformed body = %d, want 400", got)
	}
	if got := post(`{"customer":"acme","from":"DC-A","to":"DC-C","rate":"10G"}`); got != http.StatusOK {
		t.Fatalf("well-formed connect after the oversized one = %d, want 200", got)
	}
}

// discardResponseWriter is a ResponseWriter with no buffer behind it, so the
// alloc gates measure only the encode path.
type discardResponseWriter struct{ h http.Header }

func (d *discardResponseWriter) Header() http.Header {
	if d.h == nil {
		d.h = make(http.Header)
	}
	return d.h
}
func (d *discardResponseWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d *discardResponseWriter) WriteHeader(int)             {}

// TestListingAllocsIndependentOfLength: a customer's listing and SLA report,
// through the handler, allocate the same number of objects whether the
// customer holds 5 connections or 50 — nothing is allocated per connection
// on the way from controller state to the wire. What is left is the request's
// own (the query's parse) and, for the report, its one slice of rows: 3 and
// 4, as measured when the gate was set.
func TestListingAllocsIndependentOfLength(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	backbone := griphon.Backbone()
	net, err := griphon.New(backbone, griphon.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	h := NewServer(net).Handler()
	sites := backbone.Sites()
	w := &discardResponseWriter{}
	allocs := func(path string) float64 {
		req := httptest.NewRequest(http.MethodGet, path, nil)
		h.ServeHTTP(w, req) // warm the pool
		return testing.AllocsPerRun(100, func() { h.ServeHTTP(w, req) })
	}
	counts := map[string][]float64{}
	for _, n := range []int{5, 50} {
		cust := fmt.Sprintf("tenant-%d", n)
		for i := 0; i < n; i++ {
			// A wavelength and groomed circuits: a route and a
			// propagation delay, and none.
			rate := griphon.Rate1G
			if i == 0 {
				rate = griphon.Rate10G
			}
			pair := 2 * (i % (len(sites) / 2))
			from, to := sites[pair], sites[pair+1]
			if _, err := net.Connect(cust, from, to, rate); err != nil {
				t.Fatalf("connect %d of %d: %v", i, n, err)
			}
		}
		if got := len(net.Connections(cust)); got != n {
			t.Fatalf("%s holds %d connections, want %d", cust, got, n)
		}
		for _, route := range []string{"connections", "sla"} {
			counts[route] = append(counts[route], allocs("/api/v1/"+route+"?customer="+cust))
		}
	}
	bounds := map[string]float64{"connections": 3, "sla": 4}
	for route, c := range counts {
		if c[0] != c[1] {
			t.Errorf("GET %s allocates %v objects for 5 connections and %v for 50, want the same", route, c[0], c[1])
		}
		if c[1] > bounds[route] {
			t.Errorf("GET %s allocates %v objects, want <= %v", route, c[1], bounds[route])
		}
	}
}

// TestWriteStaticAllocGate: fixed-shape mutation responses must not allocate
// at all.
func TestWriteStaticAllocGate(t *testing.T) {
	rep := &reply{}
	w := &discardResponseWriter{}
	w.Header().Set("Content-Type", "application/json")
	allocs := testing.AllocsPerRun(200, func() {
		rep.static(bodyReleased)
		if _, err := rep.send(w); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("a static reply allocates %.1f objects per response, want 0", allocs)
	}
}
