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

	// Test seams, nil in production. testEncodeErr overrides response
	// encoding (the terminal plain-text fallback test); testSync replaces the
	// wait for the disk of a request that wrote to the journal.
	testEncodeErr func(v any) error
	testSync      func() error
}

// NewServer wraps a network, and takes over its wait for the disk: from here
// on the network's mutating calls return once written, and ack does the
// waiting after the server lock is released.
func NewServer(net *griphon.Network) *Server {
	net.HoistSync()
	return &Server{
		net: net,
		encodeErrs: net.Metrics().Counter("griphon_api_encode_errors_total",
			"HTTP API responses that failed to encode or write."),
	}
}

// Handler returns the API's routing table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /api/v1/connections", s.handleConnections)
	mux.HandleFunc("GET /api/v1/stats", s.handleStats)
	mux.HandleFunc("GET /api/v1/events", s.handleEvents)
	mux.HandleFunc("GET /api/v1/topology", s.handleTopology)
	mux.HandleFunc("GET /api/v1/bill", s.handleBill)
	mux.HandleFunc("GET /api/v1/metrics", s.handleMetrics)
	mux.HandleFunc("GET /api/v1/trace", s.handleTrace)
	mux.HandleFunc("GET /api/v1/alarms", s.handleAlarms)
	mux.HandleFunc("GET /api/v1/sla", s.handleSLA)
	mux.HandleFunc("GET /api/v1/shards", s.handleShards)
	mux.HandleFunc("POST /api/v1/connect", s.handleConnect)
	mux.HandleFunc("POST /api/v1/disconnect", s.handleDisconnect)
	mux.HandleFunc("POST /api/v1/roll", s.handleRoll)
	mux.HandleFunc("POST /api/v1/regroom", s.handleRegroom)
	mux.HandleFunc("POST /api/v1/adjust", s.handleAdjust)
	mux.HandleFunc("POST /api/v1/defrag", s.handleDefrag)
	mux.HandleFunc("POST /api/v1/cut", s.handleCut)
	mux.HandleFunc("POST /api/v1/repair", s.handleRepair)
	mux.HandleFunc("POST /api/v1/maintenance", s.handleMaintenance)
	mux.HandleFunc("POST /api/v1/advance", s.handleAdvance)
	return mux
}

func (s *Server) now() sim.Time { return sim.Time(s.net.Now()) }

func (s *Server) graph() *topo.Graph { return s.net.Graph() }

func (s *Server) handleConnections(w http.ResponseWriter, r *http.Request) {
	rep := s.begin()
	defer s.ack(w, rep)
	cust := r.URL.Query().Get("customer")
	if cust == "" {
		s.renderErr(rep, http.StatusBadRequest, fmt.Errorf("customer query parameter required"))
		return
	}
	var out []ConnectionJSON
	for _, c := range s.net.Connections(cust) {
		out = append(out, FromConnection(c, s.now(), s.graph()))
	}
	s.render(rep, http.StatusOK, ConnectResponse{Connections: out})
}

func (s *Server) handleConnect(w http.ResponseWriter, r *http.Request) {
	var req ConnectRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	rep := s.begin()
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
	out := make([]ConnectionJSON, 0, len(conns))
	for _, c := range conns {
		out = append(out, FromConnection(c, s.now(), s.graph()))
	}
	s.render(rep, http.StatusOK, ConnectResponse{Connections: out})
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

func (s *Server) handleDisconnect(w http.ResponseWriter, r *http.Request) {
	var req DisconnectRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	rep := s.begin()
	defer s.ack(w, rep)
	if err := s.net.Disconnect(req.Customer, griphon.ConnID(req.ID)); err != nil {
		s.renderErr(rep, http.StatusConflict, err)
		return
	}
	rep.static(bodyReleased)
}

func (s *Server) handleRoll(w http.ResponseWriter, r *http.Request) {
	var req RollRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	rep := s.begin()
	defer s.ack(w, rep)
	if err := s.net.BridgeAndRoll(req.Customer, griphon.ConnID(req.ID)); err != nil {
		s.renderErr(rep, http.StatusConflict, err)
		return
	}
	conn := s.net.Conn(griphon.ConnID(req.ID))
	s.render(rep, http.StatusOK, FromConnection(conn, s.now(), s.graph()))
}

func (s *Server) handleRegroom(w http.ResponseWriter, r *http.Request) {
	var req RollRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	rep := s.begin()
	defer s.ack(w, rep)
	moved, err := s.net.Regroom(req.Customer, griphon.ConnID(req.ID))
	if err != nil {
		s.renderErr(rep, http.StatusConflict, err)
		return
	}
	conn := s.net.Conn(griphon.ConnID(req.ID))
	s.render(rep, http.StatusOK, RegroomResponse{Moved: moved, Connection: FromConnection(conn, s.now(), s.graph())})
}

func (s *Server) handleAdjust(w http.ResponseWriter, r *http.Request) {
	var req AdjustRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	rep := s.begin()
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
	conn := s.net.Conn(griphon.ConnID(req.ID))
	s.render(rep, http.StatusOK, FromConnection(conn, s.now(), s.graph()))
}

func (s *Server) handleDefrag(w http.ResponseWriter, r *http.Request) {
	rep := s.begin()
	defer s.ack(w, rep)
	moved, err := s.net.DefragmentSpectrum()
	if err != nil {
		s.renderErr(rep, http.StatusConflict, err)
		return
	}
	s.render(rep, http.StatusOK, DefragResponse{
		Retuned:       moved,
		MaxChannelNow: s.net.ShardSet().MaxChannelInUse(),
	})
}

func (s *Server) handleCut(w http.ResponseWriter, r *http.Request) {
	var req LinkRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	rep := s.begin()
	defer s.ack(w, rep)
	if err := s.net.CutFiber(req.Link); err != nil {
		s.renderErr(rep, http.StatusConflict, err)
		return
	}
	rep.static(bodyCut)
}

func (s *Server) handleRepair(w http.ResponseWriter, r *http.Request) {
	var req LinkRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	rep := s.begin()
	defer s.ack(w, rep)
	if err := s.net.RepairFiber(req.Link); err != nil {
		s.renderErr(rep, http.StatusConflict, err)
		return
	}
	rep.static(bodyRepaired)
}

func (s *Server) handleMaintenance(w http.ResponseWriter, r *http.Request) {
	var req LinkRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	rep := s.begin()
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
	out := MaintenanceJSON{Link: string(m.Link), Finished: m.Finished}
	for _, id := range m.Rolled {
		out.Rolled = append(out.Rolled, string(id))
	}
	for _, id := range m.Unmoved {
		out.Unmoved = append(out.Unmoved, string(id))
	}
	s.render(rep, http.StatusOK, out)
}

func valueOr(s, def string) string {
	if s == "" {
		return def
	}
	return s
}

func (s *Server) handleAdvance(w http.ResponseWriter, r *http.Request) {
	var req AdvanceRequest
	if !s.readJSON(w, r, &req) {
		return
	}
	rep := s.begin()
	defer s.ack(w, rep)
	d, err := time.ParseDuration(req.Duration)
	if err != nil || d < 0 {
		s.renderErr(rep, http.StatusBadRequest, fmt.Errorf("bad duration %q", req.Duration))
		return
	}
	s.net.Advance(d)
	s.render(rep, http.StatusOK, map[string]string{"now": s.net.Now().String()})
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	rep := s.begin()
	defer s.ack(w, rep)
	st := s.net.Stats()
	out := StatsJSON{
		Now:           s.net.Now().String(),
		Active:        st.Active,
		Pending:       st.Pending,
		Down:          st.Down,
		Restoring:     st.Restoring,
		Released:      st.Released,
		InternalConns: st.InternalConns,
		ChannelsInUse: st.ChannelsInUse,
		OTsInUse:      st.OTsInUse,
		OTsTotal:      st.OTsTotal,
		Pipes:         st.Pipes,
		SlotsInUse:    st.SlotsInUse,
		SlotsTotal:    st.SlotsTotal,
	}
	for _, l := range st.DownLinks {
		out.DownLinks = append(out.DownLinks, string(l))
	}
	s.render(rep, http.StatusOK, out)
}

func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	rep := s.begin()
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
		page := EventsPage{Events: make([]EventJSON, 0, len(evs)), Next: next}
		for _, e := range evs {
			page.Events = append(page.Events, EventJSON{
				At: e.At.String(), Conn: string(e.Conn), Kind: e.Kind, Text: e.Text,
			})
		}
		s.render(rep, http.StatusOK, page)
		return
	}

	connFilter := q.Get("conn")
	var evs []griphon.Event
	if connFilter != "" {
		evs = s.net.EventsFor(griphon.ConnID(connFilter))
	} else {
		evs = s.net.Events()
	}
	out := make([]EventJSON, 0, len(evs))
	for _, e := range evs {
		out = append(out, EventJSON{
			At: e.At.String(), Conn: string(e.Conn), Kind: e.Kind, Text: e.Text,
		})
	}
	s.render(rep, http.StatusOK, out)
}

func (s *Server) handleAlarms(w http.ResponseWriter, r *http.Request) {
	rep := s.begin()
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
	out := AlarmsResponse{Groups: make([]AlarmGroupJSON, 0, len(groups)), Next: next}
	for _, g := range groups {
		out.Groups = append(out.Groups, FromGroup(g))
	}
	s.render(rep, http.StatusOK, out)
}

func (s *Server) handleSLA(w http.ResponseWriter, r *http.Request) {
	rep := s.begin()
	defer s.ack(w, rep)
	s.render(rep, http.StatusOK, FromSLAReport(s.net.SLA(r.URL.Query().Get("customer"))))
}

func (s *Server) handleShards(w http.ResponseWriter, r *http.Request) {
	rep := s.begin()
	defer s.ack(w, rep)
	set := s.net.ShardSet()
	out := ShardsResponse{Shards: set.Len()}
	for i := 0; i < set.Len(); i++ {
		st := set.Shard(i).Ctrl.Snapshot()
		out.PerShard = append(out.PerShard, ShardJSON{
			Index:         i,
			Active:        st.Active,
			Pending:       st.Pending,
			Down:          st.Down,
			ChannelsInUse: st.ChannelsInUse,
			Pipes:         st.Pipes,
		})
	}
	s.render(rep, http.StatusOK, out)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rep := s.begin()
	defer s.ack(w, rep)
	s.export(rep, metricsContentType, s.net.MetricsTo)
}

func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	rep := s.begin()
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

func (s *Server) handleBill(w http.ResponseWriter, r *http.Request) {
	rep := s.begin()
	defer s.ack(w, rep)
	cust := r.URL.Query().Get("customer")
	if cust == "" {
		s.renderErr(rep, http.StatusBadRequest, fmt.Errorf("customer query parameter required"))
		return
	}
	s.render(rep, http.StatusOK, BillJSON{Customer: cust, GbHours: s.net.BillGbHours(cust)})
}

func (s *Server) handleTopology(w http.ResponseWriter, r *http.Request) {
	rep := s.begin()
	defer s.ack(w, rep)
	g := s.graph()
	out := TopologyJSON{}
	for _, n := range g.Nodes() {
		out.PoPs = append(out.PoPs, string(n.ID))
	}
	for _, l := range g.Links() {
		out.Fibers = append(out.Fibers, fmt.Sprintf("%s (%.0f km)", l.ID, l.KM))
	}
	for _, site := range g.Sites() {
		out.Sites = append(out.Sites, fmt.Sprintf("%s @ %s (%.0fG access)", site.ID, site.Home, site.AccessGbps))
	}
	s.render(rep, http.StatusOK, out)
}
