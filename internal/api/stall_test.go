package api

import (
	"context"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"griphon"
)

// parkedWriter is a client that stops reading: its first Write blocks until
// the test releases it, and everything lands in rec.
type parkedWriter struct {
	rec     *httptest.ResponseRecorder
	once    sync.Once
	parked  chan struct{} // closed when the handler reaches its first Write
	release chan struct{} // closed by the test to let the writes through
}

func (w *parkedWriter) Header() http.Header    { return w.rec.Header() }
func (w *parkedWriter) WriteHeader(status int) { w.rec.WriteHeader(status) }
func (w *parkedWriter) Write(p []byte) (int, error) {
	w.once.Do(func() { close(w.parked) })
	<-w.release
	return w.rec.Write(p)
}

// TestStalledReaderDoesNotHoldTheLock: whatever the route, a reply is sent
// with the server lock released. Each row's reply is parked at its first byte;
// meanwhile another tenant's connect and an operator's stats must be answered.
// Released, the parked reply is the one an unobstructed client gets.
func TestStalledReaderDoesNotHoldTheLock(t *testing.T) {
	// Two servers built the same way answer the same bytes (equal seeds), so
	// one can take the reference reply and the other the parked one.
	prepared := func() http.Handler {
		net, err := griphon.New(griphon.Testbed(), griphon.WithSeed(5), griphon.WithTracing())
		if err != nil {
			t.Fatal(err)
		}
		h := NewServer(net).Handler()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/api/v1/connect", strings.NewReader(connectBody("acme"))))
		if rec.Code != http.StatusOK {
			t.Fatalf("preparing connect = %d: %s", rec.Code, rec.Body)
		}
		return h
	}
	for _, row := range []struct{ name, method, path, body string }{
		{"connections", http.MethodGet, "/api/v1/connections?customer=acme", ""},
		{"stats", http.MethodGet, "/api/v1/stats", ""},
		{"events", http.MethodGet, "/api/v1/events", ""},
		{"topology", http.MethodGet, "/api/v1/topology", ""},
		{"bill", http.MethodGet, "/api/v1/bill?customer=acme", ""},
		{"metrics", http.MethodGet, "/api/v1/metrics", ""},
		{"trace", http.MethodGet, "/api/v1/trace", ""},
		{"alarms", http.MethodGet, "/api/v1/alarms", ""},
		{"sla", http.MethodGet, "/api/v1/sla?customer=acme", ""},
		{"shards", http.MethodGet, "/api/v1/shards", ""},
		{"oversized body", http.MethodPost, "/api/v1/connect", strings.Repeat("x", 2*maxRequestBody)},
		{"malformed body", http.MethodPost, "/api/v1/connect", "not json"},
		{"connect", http.MethodPost, "/api/v1/connect", connectBody("acme")},
	} {
		t.Run(row.name, func(t *testing.T) {
			request := func() *http.Request {
				return httptest.NewRequest(row.method, row.path, strings.NewReader(row.body))
			}
			want := httptest.NewRecorder()
			prepared().ServeHTTP(want, request())

			h := prepared()
			w := &parkedWriter{rec: httptest.NewRecorder(), parked: make(chan struct{}), release: make(chan struct{})}
			done := make(chan struct{})
			go func() {
				defer close(done)
				h.ServeHTTP(w, request())
			}()
			select {
			case <-w.parked:
			case <-done:
				t.Fatal("the handler returned without writing a byte")
			}

			behind := []*http.Request{
				httptest.NewRequest(http.MethodPost, "/api/v1/connect", strings.NewReader(connectBody("bravo"))),
				httptest.NewRequest(http.MethodGet, "/api/v1/stats", nil),
			}
			codes := make(chan int, len(behind))
			for _, req := range behind {
				go func() {
					rec := httptest.NewRecorder()
					h.ServeHTTP(rec, req)
					codes <- rec.Code
				}()
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
			defer cancel()
			for range behind {
				select {
				case code := <-codes:
					if code != http.StatusOK {
						t.Errorf("a request behind the stalled reply = %d, want 200", code)
					}
				case <-ctx.Done():
					t.Error("requests behind the stalled reply went unanswered for 5 s: it is being written with the server lock held")
				}
			}

			close(w.release)
			<-done
			if w.rec.Code != want.Code || w.rec.Header().Get("Content-Type") != want.Header().Get("Content-Type") ||
				w.rec.Body.String() != want.Body.String() {
				t.Errorf("released reply = %d %q %q\nan unobstructed client gets %d %q %q",
					w.rec.Code, w.rec.Header().Get("Content-Type"), w.rec.Body,
					want.Code, want.Header().Get("Content-Type"), want.Body)
			}
		})
	}
}

// TestLargeReplyIsNotPooled: a reply keeps its buffer for the next request
// unless the buffer grew past maxRequestBody.
func TestLargeReplyIsNotPooled(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops items at random under the race detector")
	}
	// Whether release pooled rep: the pool hands back what it holds before
	// it makes anything new.
	pooled := func(rep *reply) bool {
		rep.release()
		for i := 0; i < 64; i++ {
			if replyPool.Get() == any(rep) {
				return true
			}
		}
		return false
	}
	small, large := &reply{}, &reply{}
	small.buf = make([]byte, 0, 512)
	large.buf = make([]byte, 0, maxRequestBody+1)
	if !pooled(small) {
		t.Error("a small reply did not go back to the pool")
	}
	if pooled(large) {
		t.Error("a reply over maxRequestBody went back to the pool")
	}
}
