package api

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"griphon"
	"griphon/internal/obs"
	"griphon/internal/sim"
	"griphon/internal/topo"
)

// Server adapts a griphon.Network to HTTP. The simulation is single-threaded,
// so one mutex serializes everything that touches it, reads included; each
// mutating call advances the virtual clock until its operation completes (a
// 62 s setup returns in microseconds of wall time). A handler reads what its
// own request concerns — the connections it just made, one customer's
// listing, bill or report — so its cost does not grow with the history the
// controller holds.
//
// The mutex covers a request's work on the network — a mutation's apply and
// journal writes, a read's listing — and the rendering of its reply, never the
// disk or the client's socket: every handler is begin, render, ack (encode.go),
// and ack releases the mutex, waits for the fsync that covers what the request
// wrote, and only then answers. No ResponseWriter method runs with the mutex
// held, so a client that stops reading delays nobody else. Reads are served
// from applied state, so a GET can list a connection whose POST has not been
// answered yet; only the answer promises that the connection survives a
// restart.
type Server struct {
	mu  sync.Mutex
	net *griphon.Network
	// encodeErrs counts responses that failed to encode or write. It belongs
	// to the process, not to a shard, so it lives in the network's
	// process-level registry. It is a plain counter /metrics reads under mu,
	// so count under mu.
	encodeErrs *obs.Counter
	// topology is GET /topology's body, rendered once: the graph never
	// changes.
	topology []byte
	// routes holds each endpoint's counters, in endpoints' order, resolved
	// once: every Handler of the server counts into them.
	routes []route

	// testSync, nil in production, replaces the wait for the disk of a
	// request that wrote to the journal.
	testSync func() error
}

// NewServer wraps a network, and takes over its wait for the disk: from here
// on the network's mutating calls return once written, and ack does the
// waiting after the server lock is released.
func NewServer(net *griphon.Network) *Server {
	net.HoistSync()
	m := net.Metrics()
	s := &Server{
		net: net,
		encodeErrs: m.Counter("griphon_api_encode_errors_total",
			"HTTP API responses that failed to encode or write."),
		topology: append(appendTopology(nil, net.Graph()), '\n'),
		routes:   make([]route, len(endpoints)),
	}
	for i, e := range endpoints {
		rt := &s.routes[i]
		rt.requests = m.Counter("griphon_api_requests_total",
			"HTTP API requests answered, by route.", "route", e.path)
		m.CounterFunc("griphon_api_response_bytes_total", "HTTP API response body bytes sent, by route.",
			func() float64 { return float64(rt.sent.Load()) }, "route", e.path)
	}
	return s
}

// Handler returns the API's routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	for i, e := range endpoints {
		rt, handle := &s.routes[i], e.handle
		mux.HandleFunc(e.method+" "+e.path, func(w http.ResponseWriter, r *http.Request) { handle(s, rt, w, r) })
	}
	return mux
}

// endpoints is the API's routing table.
var endpoints = [...]struct {
	method, path string
	handle       func(*Server, *route, http.ResponseWriter, *http.Request)
}{
	{"GET", "/api/v1/connections", (*Server).handleConnections},
	{"GET", "/api/v1/stats", (*Server).handleStats},
	{"GET", "/api/v1/events", (*Server).handleEvents},
	{"GET", "/api/v1/topology", (*Server).handleTopology},
	{"GET", "/api/v1/bill", (*Server).handleBill},
	{"GET", "/api/v1/metrics", (*Server).handleMetrics},
	{"GET", "/api/v1/trace", (*Server).handleTrace},
	{"GET", "/api/v1/alarms", (*Server).handleAlarms},
	{"GET", "/api/v1/sla", (*Server).handleSLA},
	{"GET", "/api/v1/shards", (*Server).handleShards},
	{"POST", "/api/v1/connect", (*Server).handleConnect},
	{"POST", "/api/v1/disconnect", (*Server).handleDisconnect},
	{"POST", "/api/v1/roll", (*Server).handleRoll},
	{"POST", "/api/v1/regroom", (*Server).handleRegroom},
	{"POST", "/api/v1/adjust", (*Server).handleAdjust},
	{"POST", "/api/v1/defrag", (*Server).handleDefrag},
	{"POST", "/api/v1/cut", (*Server).handleCut},
	{"POST", "/api/v1/repair", (*Server).handleRepair},
	{"POST", "/api/v1/maintenance", (*Server).handleMaintenance},
	{"POST", "/api/v1/advance", (*Server).handleAdvance},
}

func (s *Server) now() sim.Time { return sim.Time(s.net.Now()) }

func (s *Server) graph() *topo.Graph { return s.net.Graph() }

func (s *Server) handleConnections(rt *route, w http.ResponseWriter, r *http.Request) {
	rep := s.begin(rt)
	defer s.ack(w, rep)
	cust := r.URL.Query().Get("customer")
	if cust == "" {
		s.renderErr(rep, http.StatusBadRequest, fmt.Errorf("customer query parameter required"))
		return
	}
	conns, now, g := s.net.Connections(cust), s.now(), s.graph()
	s.render(rep, http.StatusOK, func(b []byte) []byte { return appendConnections(b, conns, now, g) })
}

func (s *Server) handleConnect(rt *route, w http.ResponseWriter, r *http.Request) {
	var req ConnectRequest
	if !s.readJSON(rt, w, r, &req) {
		return
	}
	rep := s.begin(rt)
	defer s.ack(w, rep)
	rate, err := griphon.ParseRate(req.Rate)
	if err != nil {
		s.renderErr(rep, http.StatusBadRequest, err)
		return
	}
	protect, err := parseProtection(req.Protection)
	if err != nil {
		s.renderErr(rep, http.StatusBadRequest, err)
		return
	}
	conns, err := s.net.ConnectAll(req.Customer, req.From, req.To, rate, protect)
	if err != nil {
		s.renderErr(rep, http.StatusConflict, err)
		return
	}
	now, g := s.now(), s.graph()
	s.render(rep, http.StatusOK, func(b []byte) []byte { return appendConnections(b, conns, now, g) })
}

func parseProtection(s string) (griphon.Protection, error) {
	switch s {
	case "", "restore":
		return griphon.Restore, nil
	case "1+1", "oneplusone":
		return griphon.OnePlusOne, nil
	case "unprotected":
		return griphon.Unprotected, nil
	case "shared-mesh", "sharedmesh":
		return griphon.SharedMesh, nil
	}
	return 0, fmt.Errorf("unknown protection %q", s)
}

func (s *Server) handleDisconnect(rt *route, w http.ResponseWriter, r *http.Request) {
	var req DisconnectRequest
	if !s.readJSON(rt, w, r, &req) {
		return
	}
	rep := s.begin(rt)
	defer s.ack(w, rep)
	if err := s.net.Disconnect(req.Customer, griphon.ConnID(req.ID)); err != nil {
		s.renderErr(rep, http.StatusConflict, err)
		return
	}
	rep.static(bodyReleased)
}

func (s *Server) handleRoll(rt *route, w http.ResponseWriter, r *http.Request) {
	var req RollRequest
	if !s.readJSON(rt, w, r, &req) {
		return
	}
	rep := s.begin(rt)
	defer s.ack(w, rep)
	if err := s.net.BridgeAndRoll(req.Customer, griphon.ConnID(req.ID)); err != nil {
		s.renderErr(rep, http.StatusConflict, err)
		return
	}
	s.renderConn(rep, griphon.ConnID(req.ID))
}

func (s *Server) handleRegroom(rt *route, w http.ResponseWriter, r *http.Request) {
	var req RollRequest
	if !s.readJSON(rt, w, r, &req) {
		return
	}
	rep := s.begin(rt)
	defer s.ack(w, rep)
	moved, err := s.net.Regroom(req.Customer, griphon.ConnID(req.ID))
	if err != nil {
		s.renderErr(rep, http.StatusConflict, err)
		return
	}
	conn, now, g := s.net.Conn(griphon.ConnID(req.ID)), s.now(), s.graph()
	s.render(rep, http.StatusOK, func(b []byte) []byte { return appendRegroom(b, moved, conn, now, g) })
}

func (s *Server) handleAdjust(rt *route, w http.ResponseWriter, r *http.Request) {
	var req AdjustRequest
	if !s.readJSON(rt, w, r, &req) {
		return
	}
	rep := s.begin(rt)
	defer s.ack(w, rep)
	rate, err := griphon.ParseRate(req.Rate)
	if err != nil {
		s.renderErr(rep, http.StatusBadRequest, err)
		return
	}
	if err := s.net.AdjustRate(req.Customer, griphon.ConnID(req.ID), rate); err != nil {
		s.renderErr(rep, http.StatusConflict, err)
		return
	}
	s.renderConn(rep, griphon.ConnID(req.ID))
}

// renderConn answers with one connection's ConnectionJSON.
func (s *Server) renderConn(rep *reply, id griphon.ConnID) {
	conn, now, g := s.net.Conn(id), s.now(), s.graph()
	s.render(rep, http.StatusOK, func(b []byte) []byte { return appendConnection(b, conn, now, g) })
}

func (s *Server) handleDefrag(rt *route, w http.ResponseWriter, r *http.Request) {
	rep := s.begin(rt)
	defer s.ack(w, rep)
	moved, err := s.net.DefragmentSpectrum()
	if err != nil {
		s.renderErr(rep, http.StatusConflict, err)
		return
	}
	maxChannel := s.net.ShardSet().MaxChannelInUse()
	s.render(rep, http.StatusOK, func(b []byte) []byte { return appendDefrag(b, moved, maxChannel) })
}

func (s *Server) handleCut(rt *route, w http.ResponseWriter, r *http.Request) {
	var req LinkRequest
	if !s.readJSON(rt, w, r, &req) {
		return
	}
	rep := s.begin(rt)
	defer s.ack(w, rep)
	if err := s.net.CutFiber(req.Link); err != nil {
		s.renderErr(rep, http.StatusConflict, err)
		return
	}
	rep.static(bodyCut)
}

func (s *Server) handleRepair(rt *route, w http.ResponseWriter, r *http.Request) {
	var req LinkRequest
	if !s.readJSON(rt, w, r, &req) {
		return
	}
	rep := s.begin(rt)
	defer s.ack(w, rep)
	if err := s.net.RepairFiber(req.Link); err != nil {
		s.renderErr(rep, http.StatusConflict, err)
		return
	}
	rep.static(bodyRepaired)
}

func (s *Server) handleMaintenance(rt *route, w http.ResponseWriter, r *http.Request) {
	var req LinkRequest
	if !s.readJSON(rt, w, r, &req) {
		return
	}
	rep := s.begin(rt)
	defer s.ack(w, rep)
	in, err := time.ParseDuration(valueOr(req.In, "1m"))
	if err != nil {
		s.renderErr(rep, http.StatusBadRequest, err)
		return
	}
	window, err := time.ParseDuration(valueOr(req.Window, "2h"))
	if err != nil {
		s.renderErr(rep, http.StatusBadRequest, err)
		return
	}
	m, err := s.net.ScheduleMaintenance(req.Link, in, window)
	if err != nil {
		s.renderErr(rep, http.StatusConflict, err)
		return
	}
	// Let the whole window play out so the response is conclusive.
	s.net.Advance(in + window + time.Hour)
	s.render(rep, http.StatusOK, func(b []byte) []byte { return appendMaintenance(b, m) })
}

func valueOr(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

func (s *Server) handleAdvance(rt *route, w http.ResponseWriter, r *http.Request) {
	var req AdvanceRequest
	if !s.readJSON(rt, w, r, &req) {
		return
	}
	rep := s.begin(rt)
	defer s.ack(w, rep)
	d, err := time.ParseDuration(req.Duration)
	if err != nil || d < 0 {
		s.renderErr(rep, http.StatusBadRequest, fmt.Errorf("bad duration %q", req.Duration))
		return
	}
	s.net.Advance(d)
	now := s.net.Now()
	s.render(rep, http.StatusOK, func(b []byte) []byte { return appendAdvance(b, now) })
}

func (s *Server) handleStats(rt *route, w http.ResponseWriter, r *http.Request) {
	rep := s.begin(rt)
	defer s.ack(w, rep)
	st, now := s.net.Stats(), s.net.Now()
	s.render(rep, http.StatusOK, func(b []byte) []byte { return appendStats(b, now, &st) })
}

func (s *Server) handleEvents(rt *route, w http.ResponseWriter, r *http.Request) {
	rep := s.begin(rt)
	defer s.ack(w, rep)
	q := r.URL.Query()

	// With a since cursor the response is a page ({events, next}); resuming
	// from next yields no gaps or repeats. The cursor is positional over the
	// whole log, so it composes with the conn filter only trivially (reject
	// the combination rather than silently mis-paginate).
	if sinceStr := q.Get("since"); sinceStr != "" {
		if q.Get("conn") != "" {
			s.renderErr(rep, http.StatusBadRequest, fmt.Errorf("since and conn cannot be combined"))
			return
		}
		since, err := strconv.Atoi(sinceStr)
		if err != nil {
			s.renderErr(rep, http.StatusBadRequest, fmt.Errorf("bad since cursor %q", sinceStr))
			return
		}
		evs, next := s.net.EventsSince(since)
		s.render(rep, http.StatusOK, func(b []byte) []byte { return appendEventsPage(b, evs, next) })
		return
	}

	connFilter := q.Get("conn")
	var evs []griphon.Event
	if connFilter != "" {
		evs = s.net.EventsFor(griphon.ConnID(connFilter))
	} else {
		evs = s.net.Events()
	}
	s.render(rep, http.StatusOK, func(b []byte) []byte { return appendEvents(b, evs) })
}

func (s *Server) handleAlarms(rt *route, w http.ResponseWriter, r *http.Request) {
	rep := s.begin(rt)
	defer s.ack(w, rep)
	q := r.URL.Query()
	var since uint64
	if sinceStr := q.Get("since"); sinceStr != "" {
		v, err := strconv.ParseUint(sinceStr, 10, 64)
		if err != nil {
			s.renderErr(rep, http.StatusBadRequest, fmt.Errorf("bad since cursor %q", sinceStr))
			return
		}
		since = v
	}
	groups, next := s.net.Alarms(since, q.Get("customer"))
	s.render(rep, http.StatusOK, func(b []byte) []byte { return appendAlarms(b, groups, next) })
}

func (s *Server) handleSLA(rt *route, w http.ResponseWriter, r *http.Request) {
	rep := s.begin(rt)
	defer s.ack(w, rep)
	report := s.net.SLA(r.URL.Query().Get("customer"))
	s.render(rep, http.StatusOK, func(b []byte) []byte { return appendSLA(b, &report) })
}

func (s *Server) handleShards(rt *route, w http.ResponseWriter, r *http.Request) {
	rep := s.begin(rt)
	defer s.ack(w, rep)
	set := s.net.ShardSet()
	s.render(rep, http.StatusOK, func(b []byte) []byte { return appendShards(b, set) })
}

func (s *Server) handleMetrics(rt *route, w http.ResponseWriter, r *http.Request) {
	rep := s.begin(rt)
	defer s.ack(w, rep)
	s.export(rep, metricsContentType, s.net.MetricsTo)
}

func (s *Server) handleTrace(rt *route, w http.ResponseWriter, r *http.Request) {
	rep := s.begin(rt)
	defer s.ack(w, rep)
	if !s.net.Tracing() {
		s.renderErr(rep, http.StatusConflict,
			fmt.Errorf("tracing is off; start the network with tracing enabled"))
		return
	}
	switch format := r.URL.Query().Get("format"); format {
	case "", "chrome":
		s.export(rep, jsonContentType, s.net.TraceTo)
	case "jsonl":
		s.export(rep, jsonlContentType, s.net.TraceJSONLTo)
	default:
		s.renderErr(rep, http.StatusBadRequest, fmt.Errorf("unknown trace format %q", format))
	}
}

func (s *Server) handleBill(rt *route, w http.ResponseWriter, r *http.Request) {
	rep := s.begin(rt)
	defer s.ack(w, rep)
	cust := r.URL.Query().Get("customer")
	if cust == "" {
		s.renderErr(rep, http.StatusBadRequest, fmt.Errorf("customer query parameter required"))
		return
	}
	gbHours := s.net.BillGbHours(cust)
	s.render(rep, http.StatusOK, func(b []byte) []byte { return appendBill(b, cust, gbHours) })
}

func (s *Server) handleTopology(rt *route, w http.ResponseWriter, r *http.Request) {
	rep := s.begin(rt)
	defer s.ack(w, rep)
	rep.static(s.topology)
}
