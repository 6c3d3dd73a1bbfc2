package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"time"

	"griphon"
	"griphon/internal/api"
	"griphon/internal/sim"
)

// connRec is what a target reports about one connection.
type connRec struct {
	id, customer, from, to, state string
	setupSeconds                  float64
}

// outcome is one executed request as the client saw it.
type outcome struct {
	status  int           // 200, 409 or anything else
	latency time.Duration // request sent to reply fully read; for the facade, time inside its calls
	bytes   int           // size of the reply body
	conns   []connRec     // connect: the new components; GET connections: the listing
	refusal string        // 409: the daemon's error text
	gbHours float64       // GET bill
	next    int           // GET events: cursor to resume from
}

// target executes requests: over HTTP against a daemon or an httptest server,
// or straight on the griphon.Network facade. parent is the caller's open span
// (-1 when tracing is off). An error means the reply could not be obtained or
// was not what the API promises; a 409 is not an error.
type target interface {
	connect(parent int32, cust, from, to, rate, protect string) (outcome, error)
	disconnect(parent int32, cust, id string) (outcome, error)
	get(parent int32, kind getKind, cust string, cursor int) (outcome, error)
}

// httpTarget drives the API over one keep-alive connection.
type httpTarget struct {
	base string
	hc   *http.Client
	buf  bytes.Buffer
	sw   *sim.Stopwatch
	tr   *tracer
	topo topoShape

	// direct, when set, replaces the network: requests go to the handler
	// through an httptest recorder and allocations are counted per class.
	direct  http.Handler
	mallocs [2]uint64
	calls   [2]int
}

// topoShape is what GET topology must report.
type topoShape struct{ pops, fibers, sites int }

func shapeOf(t *griphon.Topology) topoShape {
	return topoShape{len(t.PoPs()), len(t.Fibers()), len(t.Sites())}
}

// spanHeader carries the client's transport span to the traced server.
const spanHeader = "X-Bench-Span"

func newHTTPTarget(base string, sw *sim.Stopwatch, tr *tracer, shape topoShape) *httpTarget {
	return &httpTarget{
		base: base,
		hc: &http.Client{
			Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1},
			Timeout:   30 * time.Second,
		},
		sw: sw, tr: tr, topo: shape,
	}
}

func (h *httpTarget) close() { h.hc.CloseIdleConnections() }

// roundTrip sends one request and reads the whole reply into h.buf.
func (h *httpTarget) roundTrip(parent int32, method, path, body string) (outcome, error) {
	sp := h.tr.begin("http.transport", parent)
	t0 := h.sw.Elapsed()
	var status int
	var err error
	if h.direct != nil {
		status = h.serveDirect(method, path, body)
	} else {
		status, err = h.exchange(sp, method, path, body)
	}
	out := outcome{status: status, latency: h.sw.Elapsed() - t0, bytes: h.buf.Len()}
	h.tr.end(sp)
	if err != nil {
		return outcome{}, err
	}
	if out.status != http.StatusOK {
		var e api.ErrorJSON
		if err := json.Unmarshal(h.buf.Bytes(), &e); err != nil || e.Error == "" {
			return out, fmt.Errorf("%s %s: status %d with no error envelope: %q", method, path, out.status, h.buf.Bytes())
		}
		out.refusal = e.Error
	}
	return out, nil
}

// exchange does the request over the network.
func (h *httpTarget) exchange(sp int32, method, path, body string) (int, error) {
	var rd io.Reader
	if body != "" {
		rd = strings.NewReader(body)
	}
	req, err := http.NewRequest(method, h.base+path, rd)
	if err != nil {
		return 0, err
	}
	if sp >= 0 {
		req.Header.Set(spanHeader, strconv.Itoa(int(sp)))
	}
	resp, err := h.hc.Do(req)
	if err != nil {
		return 0, err
	}
	h.buf.Reset()
	_, err = h.buf.ReadFrom(resp.Body)
	resp.Body.Close()
	return resp.StatusCode, err
}

// serveDirect calls the handler on this goroutine with a recorder, counting
// the heap allocations made inside ServeHTTP.
func (h *httpTarget) serveDirect(method, path, body string) int {
	req := httptest.NewRequest(method, path, strings.NewReader(body))
	rec := httptest.NewRecorder()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	h.direct.ServeHTTP(rec, req)
	runtime.ReadMemStats(&m1)
	class := classMut
	if method == http.MethodGet {
		class = classRead
	}
	h.mallocs[class] += m1.Mallocs - m0.Mallocs
	h.calls[class]++
	h.buf.Reset()
	h.buf.Write(rec.Body.Bytes())
	return rec.Code
}

func fromJSON(c api.ConnectionJSON) connRec {
	return connRec{id: c.ID, customer: c.Customer, from: c.From, to: c.To, state: c.State, setupSeconds: c.SetupSeconds}
}

func (h *httpTarget) connect(parent int32, cust, from, to, rate, protect string) (outcome, error) {
	body := fmt.Sprintf(`{"customer":%q,"from":%q,"to":%q,"rate":%q,"protection":%q}`, cust, from, to, rate, protect)
	out, err := h.roundTrip(parent, http.MethodPost, "/api/v1/connect", body)
	if err != nil || out.status != http.StatusOK {
		return out, err
	}
	var resp api.ConnectResponse
	if err := json.Unmarshal(h.buf.Bytes(), &resp); err != nil {
		return out, fmt.Errorf("connect reply: %w", err)
	}
	for _, c := range resp.Connections {
		out.conns = append(out.conns, fromJSON(c))
	}
	return out, nil
}

func (h *httpTarget) disconnect(parent int32, cust, id string) (outcome, error) {
	body := fmt.Sprintf(`{"customer":%q,"id":%q}`, cust, id)
	out, err := h.roundTrip(parent, http.MethodPost, "/api/v1/disconnect", body)
	if err != nil || out.status != http.StatusOK {
		return out, err
	}
	var resp struct {
		Status string `json:"status"`
	}
	if err := json.Unmarshal(h.buf.Bytes(), &resp); err != nil || resp.Status != "released" {
		return out, fmt.Errorf("disconnect reply: %q", h.buf.Bytes())
	}
	return out, nil
}

func (h *httpTarget) get(parent int32, kind getKind, cust string, cursor int) (outcome, error) {
	path := "/api/v1/" + getNames[kind]
	switch kind {
	case getConnections, getBill, getSLA:
		path += "?customer=" + cust
	case getEvents:
		path += "?since=" + strconv.Itoa(cursor)
	}
	out, err := h.roundTrip(parent, http.MethodGet, path, "")
	if err != nil {
		return out, err
	}
	if out.status != http.StatusOK {
		return out, fmt.Errorf("GET %s: status %d: %s", path, out.status, out.refusal)
	}
	raw := h.buf.Bytes()
	switch kind {
	case getConnections:
		var resp api.ConnectResponse
		if err := json.Unmarshal(raw, &resp); err != nil {
			return out, fmt.Errorf("GET %s: %w", path, err)
		}
		for _, c := range resp.Connections {
			out.conns = append(out.conns, fromJSON(c))
		}
	case getBill:
		var resp api.BillJSON
		if err := json.Unmarshal(raw, &resp); err != nil || resp.Customer != cust {
			return out, fmt.Errorf("GET %s: bad bill %q (%v)", path, raw, err)
		}
		out.gbHours = resp.GbHours
	case getSLA:
		var resp api.SLAJSON
		if err := json.Unmarshal(raw, &resp); err != nil || resp.Customer != cust {
			return out, fmt.Errorf("GET %s: bad report (%v)", path, err)
		}
		for _, c := range resp.Conns {
			if c.Customer != cust {
				return out, fmt.Errorf("GET %s: report lists %s of customer %s", path, c.ID, c.Customer)
			}
		}
	case getEvents:
		var resp api.EventsPage
		if err := json.Unmarshal(raw, &resp); err != nil {
			return out, fmt.Errorf("GET %s: %w", path, err)
		}
		if resp.Next-cursor != len(resp.Events) {
			return out, fmt.Errorf("GET %s: %d events but cursor moved %d -> %d", path, len(resp.Events), cursor, resp.Next)
		}
		out.next = resp.Next
	case getStats:
		var resp api.StatsJSON
		if err := json.Unmarshal(raw, &resp); err != nil || resp.Now == "" {
			return out, fmt.Errorf("GET %s: bad stats %q (%v)", path, raw, err)
		}
	case getTopology:
		var resp api.TopologyJSON
		if err := json.Unmarshal(raw, &resp); err != nil {
			return out, fmt.Errorf("GET %s: %w", path, err)
		}
		if got := (topoShape{len(resp.PoPs), len(resp.Fibers), len(resp.Sites)}); got != h.topo {
			return out, fmt.Errorf("GET %s: topology %+v, want %+v", path, got, h.topo)
		}
	}
	return out, nil
}

// facadeTarget calls the griphon.Network facade the way the api handlers do,
// one span per call, so core time can be told from api time.
type facadeTarget struct {
	net *griphon.Network
	sw  *sim.Stopwatch
	tr  *tracer
}

// timed runs fn inside a span and adds its duration to out.latency.
func (f *facadeTarget) timed(out *outcome, name string, parent int32, fn func()) {
	sp := f.tr.begin(name, parent)
	t0 := f.sw.Elapsed()
	fn()
	out.latency += f.sw.Elapsed() - t0
	f.tr.end(sp)
}

func fromConn(c *griphon.Connection) connRec {
	return connRec{
		id: string(c.ID), customer: string(c.Customer), from: string(c.From), to: string(c.To),
		state: c.State.String(), setupSeconds: c.SetupTime().Seconds(),
	}
}

// connect lists, connects and lists again, as handleConnect does.
func (f *facadeTarget) connect(parent int32, cust, from, to, rate, protect string) (outcome, error) {
	out := outcome{status: http.StatusOK}
	r, err := griphon.ParseRate(rate)
	if err != nil {
		return out, err
	}
	var prot []griphon.Protection
	switch protect {
	case "", "restore":
	case "1+1":
		prot = []griphon.Protection{griphon.OnePlusOne}
	case "unprotected":
		prot = []griphon.Protection{griphon.Unprotected}
	default:
		return out, fmt.Errorf("facade: unknown protection %q", protect)
	}
	var before int
	f.timed(&out, "core.list", parent, func() { before = len(f.net.Connections(cust)) })
	f.timed(&out, "core.connect", parent, func() { _, err = f.net.Connect(cust, from, to, r, prot...) })
	if err != nil {
		out.status, out.refusal = http.StatusConflict, err.Error()
		return out, nil
	}
	var after []*griphon.Connection
	f.timed(&out, "core.list", parent, func() { after = f.net.Connections(cust) })
	for _, c := range after[before:] {
		out.conns = append(out.conns, fromConn(c))
	}
	return out, nil
}

func (f *facadeTarget) disconnect(parent int32, cust, id string) (outcome, error) {
	out := outcome{status: http.StatusOK}
	var err error
	f.timed(&out, "core.disconnect", parent, func() { err = f.net.Disconnect(cust, griphon.ConnID(id)) })
	if err != nil {
		out.status, out.refusal = http.StatusConflict, err.Error()
	}
	return out, nil
}

func (f *facadeTarget) get(parent int32, kind getKind, cust string, cursor int) (outcome, error) {
	out := outcome{status: http.StatusOK}
	switch kind {
	case getConnections:
		f.timed(&out, "core.list", parent, func() {
			for _, c := range f.net.Connections(cust) {
				out.conns = append(out.conns, fromConn(c))
			}
		})
	case getBill:
		f.timed(&out, "core.bill", parent, func() { out.gbHours = f.net.BillGbHours(cust) })
	case getSLA:
		f.timed(&out, "slo.report", parent, func() { f.net.SLA(cust) })
	case getEvents:
		f.timed(&out, "core.events", parent, func() { _, out.next = f.net.EventsSince(cursor) })
	case getStats:
		f.timed(&out, "core.stats", parent, func() { f.net.Stats() })
	case getTopology:
		f.timed(&out, "core.topology", parent, func() {
			g := f.net.Controller().Graph()
			g.Nodes()
			g.Links()
			g.Sites()
		})
	}
	return out, nil
}

// liveConn is an acknowledged, not yet disconnected connection.
type liveConn struct{ id, from, to string }

// client runs one script in a closed loop: the next request goes out when the
// reply to the last has been read and checked. It keeps the ledger of what
// the server acknowledged for its own tenants; no other client touches them.
type client struct {
	id     int
	tgt    target
	script *script
	names  []string // tenant index -> customer name
	tr     *tracer

	live     map[int][]liveConn // oldest first
	lastPair map[int][2]string  // site pair of the tenant's last disconnect
	bills    map[int]float64    // last bill seen, which may only grow
	cursor   int                // events cursor carried from the last page

	sampling  bool
	mutMs     []float64
	readMs    []float64
	estabS    []float64 // virtual-time establishment latency from connect replies
	attempted int
	failed    int
	connects  int
	blocked   int
	readBytes int
	firstErr  error
}

func newClient(id int, tgt target, s *script, names []string, tr *tracer) *client {
	return &client{
		id: id, tgt: tgt, script: s, names: names, tr: tr,
		live: map[int][]liveConn{}, lastPair: map[int][2]string{}, bills: map[int]float64{},
	}
}

// resetCounts starts a new phase: what set-up and warm-up did is not part of
// the measured run.
func (c *client) resetCounts() { c.attempted, c.connects, c.blocked = 0, 0, 0 }

// expected reports whether a 409 with this text is one the workload expects.
func (c *client) expected(refusal string) bool {
	for _, frag := range c.script.w.refusals {
		if strings.Contains(refusal, frag) {
			return true
		}
	}
	return false
}

// fail records a failed op. Only the first error is kept; the count is what
// the result reports.
func (c *client) fail(o op, err error) {
	c.failed++
	if c.firstErr == nil {
		c.firstErr = fmt.Errorf("client %d: %s: %w", c.id, o, err)
	}
}

// do executes one op and checks the reply against the ledger.
func (c *client) do(o op) {
	cust := c.names[o.tenant]
	switch {
	case o.kind == opDisconnect && len(c.live[o.tenant]) == 0:
		return // its connect was refused; nothing to take down
	case o.kind == opConnect && o.swap:
		if _, ok := c.lastPair[o.tenant]; !ok {
			return // nothing was taken down, so nothing to replace
		}
	}
	class := int8(classMut)
	if o.kind == opGet {
		class = classRead
	}
	sp := c.tr.beginOp(c.id, class)
	defer c.tr.end(sp)
	c.attempted++

	var out outcome
	var err error
	switch o.kind {
	case opConnect:
		from, to := o.from, o.to
		if o.swap {
			pair := c.lastPair[o.tenant]
			from, to = pair[0], pair[1]
			delete(c.lastPair, o.tenant)
		}
		c.connects++
		out, err = c.tgt.connect(sp, cust, from, to, o.rate, o.protect)
		if err == nil {
			err = c.settleConnect(o, cust, from, to, out)
		}
	case opDisconnect:
		victim := c.live[o.tenant][0]
		out, err = c.tgt.disconnect(sp, cust, victim.id)
		if err == nil && out.status != http.StatusOK {
			err = fmt.Errorf("disconnect %s: status %d: %s", victim.id, out.status, out.refusal)
		}
		if err == nil {
			c.live[o.tenant] = c.live[o.tenant][1:]
			c.lastPair[o.tenant] = [2]string{victim.from, victim.to}
		}
	case opGet:
		out, err = c.tgt.get(sp, o.get, cust, c.cursor)
		if err == nil {
			err = c.settleGet(o, cust, out)
		}
	}
	if err != nil {
		c.fail(o, err)
		return
	}
	if !c.sampling {
		return
	}
	if class == classMut {
		c.mutMs = append(c.mutMs, ms(out.latency))
	} else {
		c.readMs = append(c.readMs, ms(out.latency))
		c.readBytes += out.bytes
	}
}

func (c *client) settleConnect(o op, cust, from, to string, out outcome) error {
	switch {
	case out.status == http.StatusConflict && c.expected(out.refusal):
		c.blocked++
		return nil
	case out.status != http.StatusOK:
		return fmt.Errorf("status %d: %s", out.status, out.refusal)
	case len(out.conns) == 0:
		return fmt.Errorf("200 with no connection")
	}
	setup := 0.0
	for _, n := range out.conns {
		if n.customer != cust || n.from != from || n.to != to || n.state != "active" {
			return fmt.Errorf("asked %s %s>%s, reply holds %+v", cust, from, to, n)
		}
		for _, l := range c.live[o.tenant] {
			if l.id == n.id {
				return fmt.Errorf("reply repeats live connection %s", n.id)
			}
		}
		c.live[o.tenant] = append(c.live[o.tenant], liveConn{n.id, from, to})
		setup = max(setup, n.setupSeconds)
	}
	if c.sampling {
		c.estabS = append(c.estabS, setup)
	}
	return nil
}

func (c *client) settleGet(o op, cust string, out outcome) error {
	switch o.get {
	case getConnections:
		return c.checkListing(o.tenant, cust, out.conns)
	case getBill:
		if out.gbHours < c.bills[o.tenant] {
			return fmt.Errorf("bill fell from %g to %g Gb-hours", c.bills[o.tenant], out.gbHours)
		}
		c.bills[o.tenant] = out.gbHours
	case getEvents:
		if out.next < c.cursor {
			return fmt.Errorf("events cursor went back from %d to %d", c.cursor, out.next)
		}
		c.cursor = out.next
	}
	return nil
}

// checkListing holds a GET connections reply against the ledger: every
// acknowledged live connection is listed active, and nothing else is.
func (c *client) checkListing(tenant int, cust string, listed []connRec) error {
	active := 0
	for _, n := range listed {
		if n.customer != cust {
			return fmt.Errorf("listing for %s holds %s of %s", cust, n.id, n.customer)
		}
		switch n.state {
		case "active":
			active++
		case "released":
		default:
			return fmt.Errorf("listing for %s holds %s in state %s", cust, n.id, n.state)
		}
	}
	// A tenant holds a circuit or two at a time, so scanning the listing per
	// live connection is cheaper than indexing it.
	for _, l := range c.live[tenant] {
		if !slices.ContainsFunc(listed, func(n connRec) bool { return n.id == l.id && n.state == "active" }) {
			return fmt.Errorf("acknowledged connection %s of %s is not listed active", l.id, cust)
		}
	}
	if active != len(c.live[tenant]) {
		return fmt.Errorf("%s has %d active connections listed, ledger holds %d", cust, active, len(c.live[tenant]))
	}
	return nil
}

// verifyLedger lists every tenant of the client and compares with the ledger.
// It reports how many listings it checked.
func (c *client) verifyLedger() int {
	was, attempted := c.sampling, c.attempted
	c.sampling = false
	// Listings are checks, not load: they may fail but are not attempts.
	defer func() { c.sampling, c.attempted = was, attempted }()
	for _, t := range c.script.tenants {
		c.do(op{kind: opGet, get: getConnections, tenant: t})
	}
	return len(c.script.tenants)
}

func tenantNames(n int) []string {
	names := make([]string, n)
	for i := range names {
		names[i] = fmt.Sprintf("tenant-%03d", i)
	}
	return names
}
