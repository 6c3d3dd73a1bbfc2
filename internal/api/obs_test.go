package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"griphon"
)

func newTracingServer(t *testing.T, opts ...griphon.Option) (*Client, *griphon.Network) {
	t.Helper()
	net, err := griphon.New(griphon.Testbed(), append(opts, griphon.WithSeed(5), griphon.WithTracing())...)
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(net).Handler())
	t.Cleanup(srv.Close)
	return NewClient(srv.URL), net
}

// appendNaN appends {"oops":NaN}, as a value holding a float encoding/json
// refuses would be appended.
func appendNaN(b []byte) []byte {
	return append(appendKeyFloat(b, `{"oops":`, math.NaN()), '}')
}

// TestWriteJSONEncodeError exercises the 500 path: a value json.Marshal cannot
// encode must yield a well-formed error body (not a truncated 200), the one
// encoding/json's refusal gave, and bump the encode-error counter.
func TestWriteJSONEncodeError(t *testing.T) {
	net, err := griphon.New(griphon.Testbed(), griphon.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	s := NewServer(net)
	rec := httptest.NewRecorder()
	writeJSON(t, s, rec, http.StatusOK, appendNaN)
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	var apiErr ErrorJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &apiErr); err != nil {
		t.Fatalf("error body is not valid JSON: %v (%q)", err, rec.Body.String())
	}
	if !strings.Contains(apiErr.Error, "encoding response") {
		t.Errorf("error = %q", apiErr.Error)
	}
	_, refusal := json.Marshal(math.NaN())
	if want := `{"error":"encoding response: ` + refusal.Error() + "\"}\n"; rec.Body.String() != want {
		t.Errorf("error body = %q, want %q", rec.Body, want)
	}
	if got := s.encodeErrs.Value(); got != 1 {
		t.Errorf("griphon_api_encode_errors_total = %v, want 1", got)
	}
	// The counter is in the network's process-level registry, so the failure
	// shows up in the metrics export too.
	var b strings.Builder
	if err := net.MetricsTo(&b); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(b.String(), "griphon_api_encode_errors_total 1") {
		t.Error("encode error not visible in metrics export")
	}

	// Sharded, it is still one counter of the process: one sample, no shard
	// label, not one per shard of which all but one read zero.
	t.Run("shards=4", func(t *testing.T) {
		net, err := griphon.New(griphon.Testbed(), griphon.WithSeed(5), griphon.WithShards(4))
		if err != nil {
			t.Fatal(err)
		}
		s := NewServer(net)
		srv := httptest.NewServer(s.Handler())
		defer srv.Close()
		writeJSON(t, s, httptest.NewRecorder(), http.StatusOK, appendNaN)
		text, err := NewClient(srv.URL).Metrics()
		if err != nil {
			t.Fatal(err)
		}
		var samples []string
		for _, line := range strings.Split(text, "\n") {
			if strings.HasPrefix(line, "griphon_api_encode_errors_total") {
				samples = append(samples, line)
			}
		}
		if len(samples) != 1 || samples[0] != "griphon_api_encode_errors_total 1" {
			t.Errorf("encode-error samples = %q, want exactly one, unlabelled, reading 1", samples)
		}
		if !strings.Contains(text, `griphon_setups_total{shard="3",`) {
			t.Error("per-shard instruments lost their shard label")
		}
	})
}

func TestEventsEndpoint(t *testing.T) {
	c, _ := newTestServer(t)
	resp, err := c.Connect(ConnectRequest{Customer: "acme", From: "DC-A", To: "DC-C", Rate: "10G"})
	if err != nil {
		t.Fatal(err)
	}
	id := resp.Connections[0].ID
	all, err := c.Events("")
	if err != nil || len(all) == 0 {
		t.Fatalf("events = %d, %v", len(all), err)
	}
	kinds := map[string]bool{}
	for _, e := range all {
		if e.At == "" || e.Kind == "" {
			t.Errorf("malformed event %+v", e)
		}
		kinds[e.Kind] = true
	}
	if !kinds["request"] || !kinds["active"] {
		t.Errorf("kinds = %v, want request and active", kinds)
	}
	filtered, err := c.Events(id)
	if err != nil || len(filtered) == 0 || len(filtered) > len(all) {
		t.Fatalf("filtered events = %d of %d, %v", len(filtered), len(all), err)
	}
	for _, e := range filtered {
		if e.Conn != id {
			t.Errorf("filter leaked event for %q", e.Conn)
		}
	}
	none, err := c.Events("no-such-conn")
	if err != nil || len(none) != 0 {
		t.Errorf("events for unknown conn = %d, %v", len(none), err)
	}
}

var promSample = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[^}]*\})? -?[0-9].*$`)

// TestMetricsEndpoint scripts setup -> cut -> restore and checks the
// Prometheus rendering: valid text format, at least 10 distinct instruments,
// and exact values for the counters the script must have moved.
func TestMetricsEndpoint(t *testing.T) {
	c, net := newTestServer(t)
	resp, err := c.Connect(ConnectRequest{Customer: "acme", From: "DC-A", To: "DC-C", Rate: "10G"})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Cut(resp.Connections[0].Route); err != nil {
		t.Fatal(err)
	}
	if err := c.Advance("10m"); err != nil {
		t.Fatal(err)
	}
	text, err := c.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	// The endpoint serves the network's own rendering, byte for byte, as it
	// stood before the request itself was counted: since then the metrics
	// route's two samples have moved by that one request and its bytes.
	var direct strings.Builder
	if err := net.MetricsTo(&direct); err != nil {
		t.Fatal(err)
	}
	const reqSample = `griphon_api_requests_total{route="/api/v1/metrics"} `
	const byteSample = `griphon_api_response_bytes_total{route="/api/v1/metrics"} `
	served := strings.Replace(text, reqSample+"0\n", reqSample+"1\n", 1)
	served = strings.Replace(served, byteSample+"0\n", fmt.Sprintf("%s%d\n", byteSample, len(text)), 1)
	if served != direct.String() {
		t.Errorf("GET /metrics differs from Network.MetricsTo:\n%s\nwant\n%s", served, direct.String())
	}

	// Structural validity: every line is a comment or a sample, every sample
	// is preceded by its family's HELP and TYPE.
	families := map[string]bool{}
	typed := map[string]bool{}
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			families[strings.Fields(line)[2]] = true
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !promSample.MatchString(line) {
			t.Errorf("bad sample line %q", line)
			continue
		}
		name := line
		if i := strings.IndexAny(line, "{ "); i > 0 {
			name = line[:i]
		}
		base := strings.TrimSuffix(strings.TrimSuffix(strings.TrimSuffix(name, "_bucket"), "_sum"), "_count")
		if !families[name] && !families[base] {
			t.Errorf("sample %q has no preceding TYPE", name)
		}
		typed[base] = true
	}
	if len(families) < 10 {
		t.Errorf("distinct instruments = %d, want >= 10", len(families))
	}

	// Golden lines the scripted setup -> cut -> restore must produce
	// (deterministic under WithSeed(5)).
	for _, want := range []string{
		`griphon_setups_total{layer="dwdm",outcome="ok"} 1`,
		`griphon_fiber_cuts_total 1`,
		`griphon_restorations_total{outcome="restored"} 1`,
		`griphon_restoration_seconds_count{layer="dwdm"} 1`,
		`griphon_connections{state="active"} 1`,
		`griphon_down_links 1`,
	} {
		if !strings.Contains(text, want+"\n") {
			t.Errorf("metrics missing %q", want)
		}
	}
	// The restoration latency histogram saw a DWDM restoration somewhere in
	// the tens of seconds, so the +Inf bucket and the 600 s bucket both hold
	// the observation while the 50 ms one does not.
	if !strings.Contains(text, `griphon_restoration_seconds_bucket{layer="dwdm",le="600"} 1`) {
		t.Error("restoration histogram missing 600 s bucket observation")
	}
	if !strings.Contains(text, `griphon_restoration_seconds_bucket{layer="dwdm",le="0.05"} 0`) {
		t.Error("restoration histogram should have empty 50 ms bucket")
	}
}

func TestTraceEndpoint(t *testing.T) {
	c, net := newTracingServer(t)
	if _, err := c.Connect(ConnectRequest{Customer: "acme", From: "DC-A", To: "DC-C", Rate: "10G"}); err != nil {
		t.Fatal(err)
	}
	raw, err := c.Trace("")
	if err != nil {
		t.Fatal(err)
	}
	var direct bytes.Buffer
	if err := net.TraceTo(&direct); err != nil || !bytes.Equal(raw, direct.Bytes()) {
		t.Errorf("GET /trace differs from Network.TraceTo (%v)", err)
	}
	var doc struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Ph   string `json:"ph"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	names := map[string]bool{}
	for _, ev := range doc.TraceEvents {
		names[ev.Name] = true
	}
	for _, want := range []string{"op:setup", "lightpath:setup", "rwa:search"} {
		if !names[want] {
			t.Errorf("trace missing span %q", want)
		}
	}

	lines, err := c.Trace("jsonl")
	if err != nil {
		t.Fatal(err)
	}
	direct.Reset()
	if err := net.TraceJSONLTo(&direct); err != nil || !bytes.Equal(lines, direct.Bytes()) {
		t.Errorf("GET /trace?format=jsonl differs from Network.TraceJSONLTo (%v)", err)
	}
	n := 0
	for _, line := range strings.Split(strings.TrimSpace(string(lines)), "\n") {
		var span map[string]any
		if err := json.Unmarshal([]byte(line), &span); err != nil {
			t.Fatalf("bad JSONL line %q: %v", line, err)
		}
		n++
	}
	if n == 0 {
		t.Error("empty JSONL trace")
	}

	if _, err := c.Trace("bogus"); err == nil || !strings.Contains(err.Error(), "unknown trace format") {
		t.Errorf("bogus format err = %v", err)
	}

	// Sharded: both exports hold every shard's spans, told apart by process
	// (Chrome) and by a shard field (JSONL).
	t.Run("shards=4", func(t *testing.T) {
		c, net := newTracingServer(t, griphon.WithShards(4))
		owners := map[int]bool{}
		for i := 0; len(owners) < 3; i++ {
			cust := fmt.Sprintf("tenant-%d", i)
			if shard := net.ShardFor(cust); !owners[shard] {
				owners[shard] = true
				if _, err := c.Connect(ConnectRequest{Customer: cust, From: "DC-A", To: "DC-C", Rate: "1G"}); err != nil {
					t.Fatal(err)
				}
			}
		}
		raw, err := c.Trace("")
		if err != nil {
			t.Fatal(err)
		}
		var direct bytes.Buffer
		if err := net.TraceTo(&direct); err != nil || !bytes.Equal(raw, direct.Bytes()) {
			t.Errorf("GET /trace differs from Network.TraceTo (%v)", err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string `json:"name"`
				PID  int    `json:"pid"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(raw, &doc); err != nil {
			t.Fatalf("trace is not valid JSON: %v", err)
		}
		pids := map[int]bool{}
		for _, ev := range doc.TraceEvents {
			if ev.Name == "op:setup" {
				pids[ev.PID-1] = true
			}
		}
		if !reflect.DeepEqual(pids, owners) {
			t.Errorf("op:setup spans under shards %v, customers on shards %v", pids, owners)
		}

		lines, err := c.Trace("jsonl")
		if err != nil {
			t.Fatal(err)
		}
		direct.Reset()
		if err := net.TraceJSONLTo(&direct); err != nil || !bytes.Equal(lines, direct.Bytes()) {
			t.Errorf("GET /trace?format=jsonl differs from Network.TraceJSONLTo (%v)", err)
		}
		tagged := map[int]bool{}
		for _, line := range strings.Split(strings.TrimSpace(string(lines)), "\n") {
			var span struct {
				Shard *int   `json:"shard"`
				Name  string `json:"name"`
			}
			if err := json.Unmarshal([]byte(line), &span); err != nil || span.Shard == nil {
				t.Fatalf("JSONL line %q carries no shard (%v)", line, err)
			}
			if span.Name == "op:setup" {
				tagged[*span.Shard] = true
			}
		}
		if !reflect.DeepEqual(tagged, owners) {
			t.Errorf("JSONL op:setup spans tagged with shards %v, customers on shards %v", tagged, owners)
		}
	})
}

func TestTraceEndpointRequiresTracing(t *testing.T) {
	c, _ := newTestServer(t)
	if _, err := c.Trace(""); err == nil || !strings.Contains(err.Error(), "tracing is off") {
		t.Errorf("trace without tracing err = %v", err)
	}
}

// TestRouteCounters: griphon_api_requests_total and
// griphon_api_response_bytes_total count, per route, the requests answered
// and the body bytes the client received — refusals included, and routes
// never called reading zero.
func TestRouteCounters(t *testing.T) {
	net, err := griphon.New(griphon.Testbed(), griphon.WithSeed(5))
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(NewServer(net).Handler())
	defer srv.Close()
	requests, received := map[string]int{}, map[string]int{}
	do := func(method, path, body string) {
		t.Helper()
		req, err := http.NewRequest(method, srv.URL+path, strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		b, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		route, _, _ := strings.Cut(path, "?")
		requests[route]++
		received[route] += len(b)
	}
	do("POST", "/api/v1/connect", `{"customer":"acme","from":"DC-A","to":"DC-C","rate":"10G"}`)
	do("POST", "/api/v1/connect", `{"customer":"acme","bogus":1}`) // refused before the lock
	for i := 0; i < 3; i++ {
		do("GET", "/api/v1/connections?customer=acme", "")
	}
	do("GET", "/api/v1/connections", "") // 400: no customer
	do("GET", "/api/v1/topology", "")
	do("GET", "/api/v1/sla?customer=acme", "")
	do("POST", "/api/v1/advance", `{"duration":"1h"}`)

	// Read through the endpoint, under the server lock the counters are
	// moved under.
	text, err := NewClient(srv.URL).Metrics()
	if err != nil {
		t.Fatal(err)
	}
	samples := map[string]string{}
	for _, line := range strings.Split(text, "\n") {
		if name, value, ok := strings.Cut(line, "} "); ok && strings.HasPrefix(name, "griphon_api_") {
			samples[name+"}"] = value
		}
	}
	for _, route := range []string{"/api/v1/connect", "/api/v1/connections", "/api/v1/topology", "/api/v1/sla", "/api/v1/advance", "/api/v1/bill"} {
		for name, want := range map[string]int{"griphon_api_requests_total": requests[route], "griphon_api_response_bytes_total": received[route]} {
			key := fmt.Sprintf("%s{route=%q}", name, route)
			if got := samples[key]; got != strconv.Itoa(want) {
				t.Errorf("%s = %q, want %d", key, got, want)
			}
		}
	}
}
