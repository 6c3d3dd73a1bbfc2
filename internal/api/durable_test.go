package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"

	"griphon"
)

// watchedWriter is a ResponseRecorder that counts every call a handler makes
// on it, so a test can look at a reply in flight without touching the
// recorder the handler's goroutine owns.
type watchedWriter struct {
	rec     *httptest.ResponseRecorder
	touched atomic.Int32
}

func (w *watchedWriter) Header() http.Header         { w.touched.Add(1); return w.rec.Header() }
func (w *watchedWriter) WriteHeader(status int)      { w.touched.Add(1); w.rec.WriteHeader(status) }
func (w *watchedWriter) Write(p []byte) (int, error) { w.touched.Add(1); return w.rec.Write(p) }

func newDurableNet(t *testing.T, dir string) *griphon.Network {
	t.Helper()
	net, err := griphon.New(griphon.Testbed(), griphon.WithSeed(5), griphon.WithStateDir(dir), griphon.WithFsync())
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func connectBody(customer string) string {
	return fmt.Sprintf(`{"customer":%q,"from":"DC-A","to":"DC-B","rate":"1G"}`, customer)
}

// listed GETs a customer's connections through h.
func listed(t *testing.T, h http.Handler, customer string) []ConnectionJSON {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/connections?customer="+customer, nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("GET connections for %s = %d: %s", customer, rec.Code, rec.Body)
	}
	var resp ConnectResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
		t.Fatal(err)
	}
	return resp.Connections
}

// journalErrors reads griphon_journal_errors_total off the metrics endpoint.
func journalErrors(t *testing.T, h http.Handler) int {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/api/v1/metrics", nil))
	for _, line := range strings.Split(rec.Body.String(), "\n") {
		var n int
		if _, err := fmt.Sscanf(line, "griphon_journal_errors_total %d", &n); err == nil {
			return n
		}
	}
	t.Fatal("griphon_journal_errors_total not exported")
	return 0
}

// TestReplyWaitsForDurable holds two mutations at the point where they wait
// for the disk and looks at the server from outside. The server lock does not
// cover the wait: a GET is answered, from applied state, and a second POST
// gets through its whole apply. The acknowledgement does: until the wait
// returns, neither reply has set a header or written a byte.
func TestReplyWaitsForDurable(t *testing.T) {
	net := newDurableNet(t, t.TempDir())
	defer net.Close()
	s := NewServer(net)
	h := s.Handler()
	waiting := make(chan struct{})
	release := make(chan struct{})
	s.testSync = func() error {
		waiting <- struct{}{}
		<-release
		return nil
	}

	post := func(customer string) (*watchedWriter, chan struct{}) {
		w, done := &watchedWriter{rec: httptest.NewRecorder()}, make(chan struct{})
		go func() {
			defer close(done)
			h.ServeHTTP(w, httptest.NewRequest(http.MethodPost, "/api/v1/connect", strings.NewReader(connectBody(customer))))
		}()
		return w, done
	}

	first, firstDone := post("acme")
	<-waiting // applied, written, lock released; the fsync is "in progress"
	if got := listed(t, h, "acme"); len(got) != 1 || got[0].State != "active" {
		t.Fatalf("GET during acme's wait lists %+v, want its one active connection", got)
	}
	second, secondDone := post("bravo")
	<-waiting // bravo took the lock, applied and reached its own wait while acme still holds none
	if got := listed(t, h, "bravo"); len(got) != 1 || got[0].State != "active" {
		t.Fatalf("GET during bravo's wait lists %+v, want its one active connection", got)
	}
	for _, w := range []*watchedWriter{first, second} {
		if n := w.touched.Load(); n != 0 {
			t.Fatalf("a reply touched its ResponseWriter %d times before its commits were durable", n)
		}
	}

	close(release)
	<-firstDone
	<-secondDone
	for _, w := range []*watchedWriter{first, second} {
		var resp ConnectResponse
		if err := json.Unmarshal(w.rec.Body.Bytes(), &resp); w.rec.Code != http.StatusOK || err != nil || len(resp.Connections) != 1 {
			t.Fatalf("reply after the wait = %d %s (%v)", w.rec.Code, w.rec.Body, err)
		}
	}
}

// TestUndurableCommitAnswers503: a commit that cannot be written, or whose
// fsync fails, is applied in memory and would not survive a restart. The
// mutation must not be answered 200; the failure is counted and logged, and
// the state it applied stays readable.
func TestUndurableCommitAnswers503(t *testing.T) {
	post := func(h http.Handler, customer string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/connect", strings.NewReader(connectBody(customer))))
		return rec
	}
	check := func(t *testing.T, net *griphon.Network, h http.Handler, rec *httptest.ResponseRecorder, minErrs, maxErrs int) {
		t.Helper()
		var apiErr ErrorJSON
		if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); rec.Code != http.StatusServiceUnavailable || err != nil ||
			!strings.Contains(apiErr.Error, "applied but not durable") {
			t.Fatalf("reply = %d %s, want a 503 error envelope", rec.Code, rec.Body)
		}
		if got := journalErrors(t, h); got < minErrs || got > maxErrs {
			t.Errorf("griphon_journal_errors_total = %d, want %d to %d", got, minErrs, maxErrs)
		}
		logged := false
		for _, e := range net.Events() {
			logged = logged || e.Kind == "journal-error"
		}
		if !logged {
			t.Error("no journal-error event in the audit log")
		}
		if got := listed(t, h, "acme"); len(got) != 1 || got[0].State != "active" {
			t.Errorf("connections after the 503 = %+v, want the applied one", got)
		}
	}

	t.Run("sync fails", func(t *testing.T) {
		net := newDurableNet(t, t.TempDir())
		defer net.Close()
		s := NewServer(net)
		s.testSync = func() error { return fmt.Errorf("injected fsync failure") }
		// The connect commits more than once (it builds a pipe first); the
		// request waits once, so one failure is what there is to count.
		check(t, net, s.Handler(), post(s.Handler(), "acme"), 1, 1)
		// The failure belonged to that request alone.
		s.testSync = nil
		if rec := post(s.Handler(), "bravo"); rec.Code != http.StatusOK {
			t.Fatalf("next mutation = %d %s", rec.Code, rec.Body)
		}
	})
	t.Run("write fails", func(t *testing.T) {
		net := newDurableNet(t, t.TempDir())
		h := NewServer(net).Handler()
		// Every journal write now fails (the store is closed), one failure
		// per commit the connect makes.
		net.Close()
		check(t, net, h, post(h, "acme"), 1, 100)
	})
}

// TestOversizedBodyClosesConnection: MaxBytesReader is handed the real
// ResponseWriter, which is how net/http learns to close the connection after
// a 413 instead of reading the rest of the body.
func TestOversizedBodyClosesConnection(t *testing.T) {
	srv := httptest.NewServer(NewServer(newNet(t)).Handler())
	defer srv.Close()
	resp, err := http.Post(srv.URL+"/api/v1/connect", "application/json", bytes.NewReader(make([]byte, 2*maxRequestBody)))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge || !resp.Close {
		t.Fatalf("status %d, Connection: close %v; want 413 and close", resp.StatusCode, resp.Close)
	}
}
