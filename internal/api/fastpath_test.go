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

// TestWriteJSONTerminalFallback pins the fix for the silent error-path
// recursion: when even the error envelope cannot be encoded, the response
// must degrade to plain text — never an empty 500 body.
func TestWriteJSONTerminalFallback(t *testing.T) {
	s := NewServer(newNet(t))
	s.testEncodeErr = func(any) error { return fmt.Errorf("boom") }
	rec := httptest.NewRecorder()
	s.writeJSON(rec, http.StatusOK, map[string]string{"fine": "value"})
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

// TestGETResponseCache: repeated GETs serve from the cache, any POST
// invalidates it, and the cached bytes match a fresh render.
func TestGETResponseCache(t *testing.T) {
	s := NewServer(newNet(t))
	srv := httptest.NewServer(s.Handler())
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
		t.Fatalf("cached stats differ:\n%s\n%s", first, second)
	}
	if hits := s.cacheHits.Value(); hits != 1 {
		t.Fatalf("cache hits = %v, want 1", hits)
	}

	// A mutation invalidates: the next GET re-renders and sees the new state.
	resp, err := http.Post(srv.URL+"/api/v1/advance", "application/json",
		strings.NewReader(`{"duration":"1h"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("advance = %d", resp.StatusCode)
	}
	misses := s.cacheMisses.Value()
	third := get("/api/v1/stats")
	if third == first {
		t.Fatal("stats unchanged after advancing the clock: stale cache")
	}
	if s.cacheMisses.Value() != misses+1 {
		t.Fatal("post-mutation GET did not re-render")
	}

	// The metrics endpoint is never cached (its counters move on scrapes).
	get("/api/v1/metrics")
	get("/api/v1/metrics")
	if s.cacheHits.Value() != 1 {
		t.Fatalf("metrics GETs hit the cache: hits = %v", s.cacheHits.Value())
	}
}

// TestPanickingMutationStillInvalidates pins the deferred cache bump: a POST
// handler that panics after mutating state (net/http recovers the panic per
// connection, so the process survives) must still invalidate the response
// cache, or cached GETs keep serving the pre-mutation state indefinitely.
func TestPanickingMutationStillInvalidates(t *testing.T) {
	s := NewServer(newNet(t))
	state := "v1"
	h := s.withCache(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost {
			state = "v2"                          // the mutation lands...
			panic("handler blew up mid-mutation") // ...then the handler dies
		}
		w.Header().Set("Content-Type", "text/plain")
		io.WriteString(w, state) //lint:allow errcheck recorder never errors
	}))
	get := func() string {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/stats", nil))
		return rec.Body.String()
	}
	if got := get(); got != "v1" {
		t.Fatalf("first GET = %q, want v1", got)
	}
	if got := get(); got != "v1" { // served from cache
		t.Fatalf("cached GET = %q, want v1", got)
	}
	func() {
		defer func() {
			if recover() == nil { // stand in for net/http's per-connection recovery
				t.Fatal("mutation handler did not panic: test is not exercising the panic path")
			}
		}()
		h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/api/v1/advance", nil))
	}()
	if got := get(); got != "v2" {
		t.Fatalf("GET after panicking mutation = %q, want v2 (stale cache not invalidated)", got)
	}
}

// TestLegacyServerServesIdenticalBytes runs a scripted session and requires
// the responses to match testdata/scripted_session.golden byte for byte. The
// golden was written by the allocate-per-response json.Marshal encoder this
// server replaced (the last commit that had it, over the same nine requests):
// the pooled encoder, static bodies and GET cache are an optimization, not a
// behavior change.
func TestLegacyServerServesIdenticalBytes(t *testing.T) {
	s := NewServer(newNet(t))
	srv := httptest.NewServer(s.Handler())
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
	do("GET", "/api/v1/connections?customer=acme", "") // cache hit
	do("GET", "/api/v1/stats", "")
	do("GET", "/api/v1/topology", "")
	do("GET", "/api/v1/bill?customer=acme", "")
	do("POST", "/api/v1/connect", `{"customer":"acme","from":"bogus","to":"DC-C","rate":"10G"}`) // error path
	do("POST", "/api/v1/advance", `{"duration":"30m"}`)
	do("GET", "/api/v1/stats", "")
	if hits := s.cacheHits.Value(); hits != 1 {
		t.Errorf("cache hits = %v, want 1: the session no longer exercises the cache", hits)
	}
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
	s.writeJSON(w, http.StatusOK, v) // warm the pool
	allocs := testing.AllocsPerRun(200, func() {
		s.writeJSON(w, http.StatusOK, v)
	})
	if allocs > 2 {
		t.Fatalf("writeJSON allocates %.1f objects per response, want <= 2", allocs)
	}
}

// TestWriteStaticAllocGate: fixed-shape mutation responses must not allocate
// at all.
func TestWriteStaticAllocGate(t *testing.T) {
	s := NewServer(newNet(t))
	w := &discardResponseWriter{}
	w.Header().Set("Content-Type", "application/json")
	allocs := testing.AllocsPerRun(200, func() {
		s.writeStatic(w, bodyReleased)
	})
	if allocs > 0 {
		t.Fatalf("writeStatic allocates %.1f objects per response, want 0", allocs)
	}
}
