package api

// Response-path machinery: pooled encode buffers, pooled request-body
// buffers and pre-encoded static bodies. The API fronts a single-threaded
// simulation, so every byte saved on the marshal path is throughput; bench/
// drives this path over real HTTP against a running griphond (workload
// portal-read).

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"sync"
)

// encState is a pooled response encoder: a reusable buffer with a JSON
// encoder bound to it. json.Encoder.Encode emits exactly json.Marshal's bytes
// plus a trailing newline — the same wire format the marshal path produced.
type encState struct {
	buf bytes.Buffer
	enc *json.Encoder
}

var encPool = sync.Pool{New: func() any {
	e := &encState{}
	e.enc = json.NewEncoder(&e.buf)
	return e
}}

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

// jsonContentType is the shared Content-Type header value — assigned, never
// mutated, so hot responses skip the per-call slice Header().Set allocates.
var jsonContentType = []string{"application/json"}

// writeStatic sends a pre-encoded JSON body.
func (s *Server) writeStatic(w http.ResponseWriter, body []byte) {
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(http.StatusOK)
	if _, err := w.Write(body); err != nil {
		s.encodeErrs.Inc() // client gone; record it and move on
	}
}

// encode renders v into e's buffer (reset first).
func (s *Server) encode(e *encState, v any) error {
	if s.testEncodeErr != nil {
		if err := s.testEncodeErr(v); err != nil {
			return err
		}
	}
	e.buf.Reset()
	return e.enc.Encode(v)
}

// writeJSON encodes v fully before touching the ResponseWriter, so an encode
// failure still yields a well-formed 500 instead of a truncated 200 body.
// If even the error envelope refuses to encode, the terminal fallback is
// plain text — the response is never silently empty. Encode and write
// failures both count in griphon_api_encode_errors_total.
func (s *Server) writeJSON(w http.ResponseWriter, status int, v any) {
	e := encPool.Get().(*encState)
	defer encPool.Put(e)
	if err := s.encode(e, v); err != nil {
		s.encodeErrs.Inc()
		if encErr := s.encode(e, ErrorJSON{Error: fmt.Sprintf("encoding response: %s", err)}); encErr != nil {
			// Terminal fallback: the error envelope itself would not encode.
			s.encodeErrs.Inc()
			w.Header().Set("Content-Type", "text/plain; charset=utf-8")
			w.WriteHeader(http.StatusInternalServerError)
			fmt.Fprintf(w, "encoding response: %s\n", err) //lint:allow errcheck best effort on the terminal error path
			return
		}
		status = http.StatusInternalServerError
	}
	w.Header()["Content-Type"] = jsonContentType
	w.WriteHeader(status)
	if _, err := w.Write(e.buf.Bytes()); err != nil {
		s.encodeErrs.Inc() // client gone; record it and move on
	}
}

func (s *Server) writeErr(w http.ResponseWriter, status int, err error) {
	s.writeJSON(w, status, ErrorJSON{Error: err.Error()})
}

// readJSON decodes the request body through a pooled buffer, keeping the
// strict unknown-field rejection of the original decoder path. A body over
// maxRequestBody is refused with 413 before it is buffered.
func (s *Server) readJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	buf := bufPool.Get().(*bytes.Buffer)
	defer bufPool.Put(buf)
	buf.Reset()
	if _, err := buf.ReadFrom(http.MaxBytesReader(w, r.Body, maxRequestBody)); err != nil {
		status := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			status = http.StatusRequestEntityTooLarge
		}
		s.writeErr(w, status, fmt.Errorf("bad request body: %w", err))
		return false
	}
	dec := json.NewDecoder(bytes.NewReader(buf.Bytes()))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		s.writeErr(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}
