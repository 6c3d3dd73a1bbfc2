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

// writeJSON renders v and sends it: what a handler and its ack do with a value,
// minus the lock.
func writeJSON(t *testing.T, s *Server, w http.ResponseWriter, status int, v any) {
	rep := replyPool.Get().(*reply)
	defer rep.release()
	s.render(rep, status, v)
	if err := rep.send(w); err != nil {
		t.Fatal(err)
	}
}

// TestWriteJSONTerminalFallback pins the fix for the silent error-path
// recursion: when even the error envelope cannot be encoded, the response
// must degrade to plain text — never an empty 500 body.
func TestWriteJSONTerminalFallback(t *testing.T) {
	s := NewServer(newNet(t))
	s.testEncodeErr = func(any) error { return fmt.Errorf("boom") }
	rec := httptest.NewRecorder()
	writeJSON(t, s, rec, http.StatusOK, map[string]string{"fine": "value"})
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if ct := rec.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("Content-Type = %q, want text/plain fallback", ct)
	}
	if body := rec.Body.String(); !strings.Contains(body, "encoding response: boom") {
		t.Fatalf("terminal fallback body = %q", body)
	}
	if got := s.encodeErrs.Value(); got != 2 {
		t.Errorf("encode errors = %v, want 2 (value + envelope)", got)
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

// TestWriteJSONAllocGate gates the pooled response encoder. The exact figure
// depends on encoding/json internals; what is pinned is the absence of
// per-response buffer copies.
func TestWriteJSONAllocGate(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	s := NewServer(newNet(t))
	w := &discardResponseWriter{}
	v := &StatsJSON{Now: "t", Active: 3, ChannelsInUse: 7}
	writeJSON(t, s, w, http.StatusOK, v) // warm the pool
	allocs := testing.AllocsPerRun(200, func() {
		writeJSON(t, s, w, http.StatusOK, v)
	})
	if allocs > 2 {
		t.Fatalf("render and send allocate %.1f objects per response, want <= 2", allocs)
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
		if err := rep.send(w); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 0 {
		t.Fatalf("a static reply allocates %.1f objects per response, want 0", allocs)
	}
}
