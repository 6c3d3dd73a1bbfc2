package api

// Response-path machinery: pooled replies, pooled request-body buffers and
// pre-encoded static bodies, and the two ends of every request (begin, ack)
// between which the server lock is held. A handler renders its answer into a
// reply and never touches the ResponseWriter: ack sends it once the lock is
// released, so a client that stops reading stalls its own goroutine and nobody
// else's request. The API fronts a single-threaded simulation, so every byte
// saved on the response path is throughput; bench/ drives this path over real
// HTTP against a running griphond (workload portal-read).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"sync"
	"sync/atomic"

	"griphon/internal/obs"
)

// reply is a pooled response: a reusable buffer the handler's appenders
// (respond.go) write into, and the status and bytes send puts on the wire.
// Every answer is rendered under the server lock and parked here until the
// lock is released — a mutation's beside the journal sequence numbers it must
// not overtake, until they are durable.
type reply struct {
	buf    []byte
	status int // 0 until something is rendered
	ctype  []string
	body   []byte   // buf, or a pre-encoded static body
	route  *route   // whose counters ack moves
	seqs   []uint64 // per shard, from ShardSet.TakeUnsynced
}

var replyPool = sync.Pool{New: func() any { return new(reply) }}

// release returns rep to the pool, unless it grew past maxRequestBody (a long
// audit log): that much capacity is not kept pinned for 300-byte answers.
func (rep *reply) release() {
	if cap(rep.buf) <= maxRequestBody {
		replyPool.Put(rep)
	}
}

// Write appends p to the reply's buffer: what an exporter writes to.
func (rep *reply) Write(p []byte) (int, error) {
	rep.buf = append(rep.buf, p...)
	return len(p), nil
}

// route is one endpoint's counters: the requests it answered, counted under
// the server lock like every counter /metrics reads, and the body bytes the
// ResponseWriter took, counted after the send without it (see ack) and
// exported by a CounterFunc.
type route struct {
	requests *obs.Counter
	sent     atomic.Uint64
}

// maxRequestBody bounds a request body. Real requests are under 300 bytes;
// the bound keeps one oversized POST from being buffered whole and its
// capacity from staying pinned in bufPool.
const maxRequestBody = 1 << 20

// bufPool holds request-body read buffers.
var bufPool = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// Pre-encoded bodies for the fixed-shape mutation responses.
var (
	bodyReleased = []byte("{\"status\":\"released\"}\n")
	bodyCut      = []byte("{\"status\":\"cut\"}\n")
	bodyRepaired = []byte("{\"status\":\"repaired\"}\n")
)

// The shared Content-Type header values — assigned, never mutated, so hot
// responses skip the per-call slice Header().Set allocates.
var (
	jsonContentType    = []string{"application/json"}
	metricsContentType = []string{"text/plain; version=0.0.4; charset=utf-8"}
	jsonlContentType   = []string{"application/x-ndjson"}
)

// static renders a pre-encoded JSON body.
func (rep *reply) static(body []byte) {
	rep.status, rep.ctype, rep.body = http.StatusOK, jsonContentType, body
}

// send puts the rendered reply on the wire and reports the body bytes
// written. An error means the client is gone; the caller counts it in
// encodeErrs, under the server lock.
func (rep *reply) send(w http.ResponseWriter) (int, error) {
	w.Header()["Content-Type"] = rep.ctype
	w.WriteHeader(rep.status)
	return w.Write(rep.body)
}

// render answers status with the JSON value body appends, and a newline:
// the bytes encoding/json's Encoder wrote for the matching wire type of
// types.go, which is what clients decode. A float encoding/json refuses (NaN,
// ±Inf) turns the answer into a JSON 500 carrying the error encoding/json
// gives for it, counted in griphon_api_encode_errors_total, so the caller
// holds the server lock.
func (s *Server) render(rep *reply, status int, body func([]byte) []byte) {
	b, err := appendBody(rep.buf[:0], body)
	if err != nil {
		s.encodeErrs.Inc()
		status = http.StatusInternalServerError
		b = appendError(rep.buf[:0], "encoding response: "+err.Error())
	}
	rep.buf = append(b, '\n')
	rep.status, rep.ctype, rep.body = status, jsonContentType, rep.buf
}

// appendBody runs body, turning the panic appendFloat raises on a float
// encoding/json refuses back into that refusal, the way encoding/json's own
// encoder unwinds. Any other panic goes on up.
func appendBody(b []byte, body func([]byte) []byte) (_ []byte, err error) {
	defer func() {
		if v := recover(); v != nil {
			f, ok := v.(unsupportedFloat)
			if !ok {
				panic(v)
			}
			err = f
		}
	}()
	return body(b), nil
}

func (s *Server) renderErr(rep *reply, status int, err error) {
	s.render(rep, status, func(b []byte) []byte { return appendError(b, err.Error()) })
}

// export renders into the reply what one of the network's exporters (metrics,
// a trace) writes, whole before any of it is sent: an exporter that fails
// yields a well-formed 500, not a truncated 200.
func (s *Server) export(rep *reply, ctype []string, to func(io.Writer) error) {
	rep.buf = rep.buf[:0]
	if err := to(rep); err != nil {
		s.encodeErrs.Inc()
		s.renderErr(rep, http.StatusInternalServerError, fmt.Errorf("encoding response: %w", err))
		return
	}
	rep.status, rep.ctype, rep.body = http.StatusOK, ctype, rep.buf
}

// begin opens a request on rt: it takes the server lock, and the reply the
// handler renders its answer into instead of writing it. Pair it with a
// deferred ack.
func (s *Server) begin(rt *route) *reply {
	rep := replyPool.Get().(*reply)
	rep.status, rep.route = 0, rt
	s.mu.Lock()
	return rep
}

// ack closes a request: it counts it on its route, collects the journal
// sequence numbers the request wrote, releases the server lock, waits until
// an fsync covers them — one per shard the request touched, however many
// commits it made, none for a read — and only then touches the
// ResponseWriter. If a commit could not be written or synced, the change
// stands in memory but would not survive a restart: the answer is 503,
// whatever the handler rendered. The bytes the ResponseWriter took are
// counted once it returns, atomically: taking the lock again there would hold
// the answer — net/http sends a small body when the handler returns — until
// whichever request holds the lock is done.
func (s *Server) ack(w http.ResponseWriter, rep *reply) {
	defer rep.release()
	rep.route.requests.Inc()
	set := s.net.ShardSet()
	var lost error
	rep.seqs, lost = set.TakeUnsynced(rep.seqs[:0])
	s.mu.Unlock()
	if rep.status == 0 {
		return // the handler panicked; there is no reply to hold back
	}
	var shard int
	var err error
	if s.testSync == nil {
		shard, err = set.WaitDurable(rep.seqs)
	} else if slices.ContainsFunc(rep.seqs, func(seq uint64) bool { return seq > 0 }) {
		err = s.testSync()
	}
	if err != nil || lost != nil {
		s.mu.Lock()
		if err != nil {
			set.SyncFailed(shard, err)
			lost = err
		}
		s.renderErr(rep, http.StatusServiceUnavailable,
			fmt.Errorf("the change is applied but not durable, and would not survive a restart: %w", lost))
		s.mu.Unlock()
	}
	n, err := rep.send(w)
	rep.route.sent.Add(uint64(n))
	if err != nil {
		s.mu.Lock()
		s.encodeErrs.Inc() // client gone; record it and move on
		s.mu.Unlock()
	}
}

// readJSON decodes the request body through a pooled buffer, keeping the
// strict unknown-field rejection of the original decoder path. A body over
// maxRequestBody is refused with 413 before it is buffered. It runs before
// the handler takes the server lock, and takes it only to refuse — a request
// of its own on rt, answered like any other.
func (s *Server) readJSON(rt *route, w http.ResponseWriter, r *http.Request, v any) bool {
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	status := http.StatusBadRequest
	// MaxBytesReader gets the real ResponseWriter: that is how it marks the
	// connection to be closed after a 413.
	_, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxRequestBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
	} else {
		dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
		dec.DisallowUnknownFields()
		err = dec.Decode(v)
	}
	if err != nil {
		rep := s.begin(rt)
		defer s.ack(w, rep)
		s.renderErr(rep, status, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}
