package core

// Durable state: the serialized form of the controller's resource & inventory
// database (paper §2.2, Fig. 3) and the journal plumbing that keeps it on
// disk. Every committed mutation appends one commit record to the WAL at the
// end of the kernel event that performed it; a full snapshot is written every
// Config.SnapshotEvery appends, and one that fails is tried again that many
// appends later. Records are written by the appenders in recenc.go, the one
// encoder for these types, into a buffer the controller reuses. Rehydrate
// (rehydrate.go) folds snapshot+WAL back into a live controller.
//
// What is durable is exactly the *committed* state: resources held by an
// in-flight choreography (a Pending setup, a Restoring re-provision, a
// bridge-and-roll bridge) are not recorded until the choreography resolves,
// so recovery rolls half-done operations back by construction — the torn-tail
// guarantee of the WAL extended up into the controller's transaction
// boundaries. Billing meters and outage clocks mutate outside commit points
// (mid-roll traffic hits, adjustment freezes) and are deliberately excluded;
// recovery restarts them fresh, trading exact usage continuity for a state
// representation that is byte-comparable against a live shadow.

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"
	"strings"

	"griphon/internal/journal"
	"griphon/internal/jsonenc"
	"griphon/internal/obs"
	"griphon/internal/otn"
	"griphon/internal/rwa"
)

// recKindCommit is the WAL record kind for commit records.
const recKindCommit = "commit"

// quotaRec serializes one customer quota.
type quotaRec struct {
	Customer       string `json:"customer"`
	MaxConnections int    `json:"max_connections,omitempty"`
	MaxBandwidth   int64  `json:"max_bandwidth,omitempty"`
}

// lightpathRec serializes one provisioned wavelength path. Segment node
// sequences are not stored: they are a pure function of Route.Path and
// Route.Plan (segmentNodes), recomputed on rehydrate.
type lightpathRec struct {
	Route     rwa.Route `json:"route"`
	OTs       [2]string `json:"ots"`
	Regens    []string  `json:"regens,omitempty"`
	PortsA    [2]string `json:"ports_a"`
	PortsB    [2]string `json:"ports_b"`
	SegOwners []string  `json:"seg_owners,omitempty"`
}

// connRec serializes one connection at its last stable state.
type connRec struct {
	ID           string        `json:"id"`
	Customer     string        `json:"customer"`
	From         string        `json:"from,omitempty"`
	To           string        `json:"to,omitempty"`
	Rate         int64         `json:"rate"`
	Layer        int           `json:"layer"`
	Protect      int           `json:"protect"`
	State        int           `json:"state"`
	Internal     bool          `json:"internal,omitempty"`
	Degraded     bool          `json:"degraded,omitempty"`
	Carries      string        `json:"carries,omitempty"`
	OnProtect    bool          `json:"on_protect,omitempty"`
	Path         *lightpathRec `json:"path,omitempty"`
	ProtectPath  *lightpathRec `json:"protect_path,omitempty"`
	Pipes        []string      `json:"pipes,omitempty"`
	Slots        int           `json:"slots,omitempty"`
	Backup       []string      `json:"backup,omitempty"`
	RequestedAt  int64         `json:"requested_at"`
	ActiveAt     int64         `json:"active_at,omitempty"`
	ReleasedAt   int64         `json:"released_at,omitempty"`
	Restorations int           `json:"restorations,omitempty"`
	Rolls        int           `json:"rolls,omitempty"`
}

// pipeRec serializes one OTN pipe. Slot occupancy is deliberately NOT stored:
// the pipe's live slot book can hold reservations made by a still-Pending
// setup (connectCircuit reserves slots before the EMS choreography runs), and
// those must evaporate on recovery exactly like every other uncommitted
// resource. Rehydrate re-reserves slots from the committed connection records,
// which are the authoritative ownership statement.
type pipeRec struct {
	ID string `json:"id"`
	A  string `json:"a"`
	B  string `json:"b"`
	// Level is the ODU level as an int.
	Level   int    `json:"level"`
	Up      bool   `json:"up"`
	Carrier string `json:"carrier,omitempty"`
}

// Booking phases, recorded in bookingRec.Phase.
const (
	bookingPending = iota // scheduled, window not yet open (or setup running)
	bookingOpen           // components active, close timer armed
	bookingClosed         // window closed, components released
	bookingFailed         // setup failed, window abandoned
)

// bookingRec serializes one calendar booking.
type bookingRec struct {
	ID       int      `json:"id"`
	Customer string   `json:"customer"`
	From     string   `json:"from"`
	To       string   `json:"to"`
	Rate     int64    `json:"rate"`
	Protect  int      `json:"protect"`
	At       int64    `json:"at"`
	Hold     int64    `json:"hold"`
	CloseAt  int64    `json:"close_at,omitempty"`
	Conns    []string `json:"conns,omitempty"`
	Phase    int      `json:"phase"`
	SetupErr string   `json:"setup_err,omitempty"`
	CloseErr string   `json:"close_err,omitempty"`
}

// stateRec is the canonical full-state serialization: every slice sorted by
// ID, every map flattened, so equal states marshal to equal bytes.
type stateRec struct {
	Now         int64        `json:"now"`
	NextConn    int          `json:"next_conn"`
	LpSeq       int          `json:"lp_seq"`
	NextBooking int          `json:"next_booking"`
	NextPipe    int          `json:"next_pipe"`
	Quotas      []quotaRec   `json:"quotas,omitempty"`
	DownLinks   []string     `json:"down_links,omitempty"`
	Conns       []connRec    `json:"conns,omitempty"`
	Pipes       []pipeRec    `json:"pipes,omitempty"`
	Bookings    []bookingRec `json:"bookings,omitempty"`
}

// commitRec is one WAL record: the entities a commit point touched, plus the
// monotonic counters. DownLinks and Quotas are pointer-slices: nil means
// unchanged, non-nil is the authoritative full set.
type commitRec struct {
	Reason      string       `json:"reason"`
	Now         int64        `json:"now"`
	NextConn    int          `json:"next_conn"`
	LpSeq       int          `json:"lp_seq"`
	NextBooking int          `json:"next_booking"`
	NextPipe    int          `json:"next_pipe"`
	Conns       []connRec    `json:"conns,omitempty"`
	Pipes       []pipeRec    `json:"pipes,omitempty"`
	DelPipes    []string     `json:"del_pipes,omitempty"`
	Bookings    []bookingRec `json:"bookings,omitempty"`
	DownLinks   *[]string    `json:"down_links,omitempty"`
	Quotas      *[]quotaRec  `json:"quotas,omitempty"`
}

// connRecOf captures a connection's last stable state. Pending connections
// are skipped entirely: their resources belong to an uncommitted setup and
// must evaporate on recovery. Mid-operation states map back to the last
// stable one (TearingDown still holds its resources; Restoring is recorded
// Down on its old path, the replacement being uncommitted).
func (c *Controller) connRecOf(conn *Connection) (connRec, bool) {
	st := conn.State
	switch st {
	case StatePending:
		return connRec{}, false
	case StateTearingDown, StateRestoring:
		st = conn.stable
	}
	r := connRec{
		ID:           string(conn.ID),
		Customer:     string(conn.Customer),
		From:         string(conn.From),
		To:           string(conn.To),
		Rate:         int64(conn.Rate),
		Layer:        int(conn.Layer),
		Protect:      int(conn.Protect),
		State:        int(st),
		Internal:     conn.Internal,
		Degraded:     conn.Degraded,
		RequestedAt:  int64(conn.RequestedAt),
		ActiveAt:     int64(conn.ActiveAt),
		ReleasedAt:   int64(conn.ReleasedAt),
		Restorations: conn.Restorations,
		Rolls:        conn.Rolls,
	}
	if conn.connLive != nil {
		r.Carries = string(conn.carries)
	}
	if st != StateReleased {
		r.OnProtect = conn.onProtect
		r.Path = lpRecOf(conn.path)
		r.ProtectPath = lpRecOf(conn.protect)
		for _, p := range conn.pipes {
			r.Pipes = append(r.Pipes, string(p.ID()))
		}
		r.Slots = conn.slots
		for _, p := range conn.backup {
			r.Backup = append(r.Backup, string(p.ID()))
		}
	}
	return r, true
}

func lpRecOf(lp *lightpath) *lightpathRec {
	if lp == nil {
		return nil
	}
	r := &lightpathRec{Route: lp.route}
	for i, ot := range lp.ots {
		if ot != nil {
			r.OTs[i] = ot.ID
		}
	}
	for _, rg := range lp.regens {
		r.Regens = append(r.Regens, rg.ID)
	}
	for i := range lp.portsA {
		r.PortsA[i] = string(lp.portsA[i])
	}
	for i := range lp.portsB {
		r.PortsB[i] = string(lp.portsB[i])
	}
	r.SegOwners = append([]string(nil), lp.segOwners...)
	return r
}

func (c *Controller) pipeRecOf(p *otn.Pipe) pipeRec {
	a, b := p.Ends()
	return pipeRec{
		ID:      string(p.ID()),
		A:       string(a),
		B:       string(b),
		Level:   int(p.Level()),
		Up:      p.Up(),
		Carrier: string(c.pipeCarrier[p.ID()]),
	}
}

func bookingRecOf(b *Booking) bookingRec {
	r := bookingRec{
		ID:       b.ID,
		Customer: string(b.Req.Customer),
		From:     string(b.Req.From),
		To:       string(b.Req.To),
		Rate:     int64(b.Req.Rate),
		Protect:  int(b.Req.Protect),
		At:       int64(b.At),
		Hold:     int64(b.Hold),
		CloseAt:  int64(b.closeAt),
		Phase:    b.phase,
	}
	// Components are durable only once the window's outcome commits: while
	// the booking is pending its setups are in flight and uncommitted, so a
	// recovered pending booking re-provisions from scratch instead of
	// pointing at connections the journal never recorded.
	if b.phase != bookingPending {
		for _, conn := range b.Conns {
			r.Conns = append(r.Conns, string(conn.ID))
		}
	}
	if b.SetupErr != nil {
		r.SetupErr = b.SetupErr.Error()
	}
	if b.CloseErr != nil {
		r.CloseErr = b.CloseErr.Error()
	}
	return r
}

func (c *Controller) quotaRecs() []quotaRec {
	// Non-nil even when empty, for the reason downLinkRecs gives: the commit
	// that clears the last quota must read back as "no quotas", not as
	// "unchanged".
	out := []quotaRec{}
	for _, cust := range c.ledger.Customers() {
		q := c.ledger.QuotaOf(cust)
		if q.MaxConnections == 0 && q.MaxBandwidth == 0 {
			continue
		}
		out = append(out, quotaRec{
			Customer:       string(cust),
			MaxConnections: q.MaxConnections,
			MaxBandwidth:   int64(q.MaxBandwidth),
		})
	}
	return out
}

func (c *Controller) downLinkRecs() []string {
	// Non-nil even when empty: commitRec carries this behind a pointer, and a
	// pointer to a nil slice marshals as JSON null, which unmarshals back to a
	// nil pointer — the fold would read "unchanged" where the truth is "all
	// links repaired".
	out := []string{}
	for _, l := range c.plant.DownLinks() {
		out = append(out, string(l))
	}
	return out
}

func (c *Controller) sortedBookings() []*Booking {
	ids := make([]int, 0, len(c.bookings))
	for id := range c.bookings {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	out := make([]*Booking, 0, len(ids))
	for _, id := range ids {
		out = append(out, c.bookings[id])
	}
	return out
}

// captureHeader serializes the committed state except the connections: the
// clock and counters, and the small entity sets.
func (c *Controller) captureHeader() stateRec {
	st := stateRec{
		Now:         int64(c.k.Now()),
		NextConn:    c.nextConn,
		LpSeq:       c.lpSeq,
		NextBooking: c.nextBooking,
		NextPipe:    c.fabric.NextID(),
		Quotas:      c.quotaRecs(),
		DownLinks:   c.downLinkRecs(),
	}
	for _, p := range c.fabric.Pipes() {
		st.Pipes = append(st.Pipes, c.pipeRecOf(p))
	}
	for _, b := range c.sortedBookings() {
		st.Bookings = append(st.Bookings, bookingRecOf(b))
	}
	return st
}

// connRecs returns an iterator over the committed connection records in ID
// order, straight off the index: each call returns the next record in one
// reused connRec, nil after the last.
func (c *Controller) connRecs() func() *connRec {
	all, i := c.conns.all, 0
	var rec connRec
	return func() *connRec {
		for i < len(all) {
			r, ok := c.connRecOf(all[i])
			i++
			if ok {
				rec = r
				return &rec
			}
		}
		return nil
	}
}

// captureState serializes the whole committed state.
func (c *Controller) captureState() stateRec {
	st := c.captureHeader()
	next := c.connRecs()
	for r := next(); r != nil; r = next() {
		st.Conns = append(st.Conns, *r)
	}
	return st
}

// DurableState returns the canonical serialization of the committed state
// with the clock zeroed — the byte-comparable form the crash-injection
// harness diffs between a recovered controller and its live shadow. It
// encodes into a fresh buffer, never the controller's: the harness calls it
// from the journal's append hook, while the commit record is still in use.
func (c *Controller) DurableState() ([]byte, error) {
	hdr := c.captureHeader()
	hdr.Now = 0
	return appendState(nil, nil, &hdr, c.connRecs())
}

// foldState folds a snapshot and subsequent WAL entries into one stateRec:
// entity records upsert by ID, DelPipes remove, pointer fields replace whole
// sets, counters last-write-wins. Connections — the bulk of any state — stay
// in the snapshot's own ID order and take their upserts in place.
func foldState(snapshot []byte, entries []journal.Entry) (stateRec, error) {
	var st stateRec
	s := jsonenc.NewScanner()
	if snapshot != nil {
		var err error
		if st, err = decodeState(s, snapshot, len(entries)); err != nil {
			return st, fmt.Errorf("core: corrupt state snapshot: %w", err)
		}
		for i := 1; i < len(st.Conns); i++ {
			if st.Conns[i-1].ID >= st.Conns[i].ID {
				return st, fmt.Errorf("core: corrupt state snapshot: connection %s out of order", st.Conns[i].ID)
			}
		}
	}
	pipes := map[string]pipeRec{}
	for _, r := range st.Pipes {
		pipes[r.ID] = r
	}
	books := map[int]bookingRec{}
	for _, r := range st.Bookings {
		books[r.ID] = r
	}
	var rec commitRec
	for _, e := range entries {
		if e.Kind != recKindCommit {
			return st, fmt.Errorf("core: unknown journal record kind %q at seq %d", e.Kind, e.Seq)
		}
		if err := decodeCommit(s, e.Data, &rec); err != nil {
			return st, fmt.Errorf("core: corrupt commit record at seq %d: %w", e.Seq, err)
		}
		st.Now = rec.Now
		st.NextConn = rec.NextConn
		st.LpSeq = rec.LpSeq
		st.NextBooking = rec.NextBooking
		st.NextPipe = rec.NextPipe
		for i := range rec.Conns {
			st.Conns = upsertConnRec(st.Conns, &rec.Conns[i])
		}
		for _, r := range rec.Pipes {
			pipes[r.ID] = r
		}
		for _, id := range rec.DelPipes {
			delete(pipes, id)
		}
		for _, r := range rec.Bookings {
			books[r.ID] = r
		}
		if rec.DownLinks != nil {
			st.DownLinks = *rec.DownLinks
		}
		if rec.Quotas != nil {
			st.Quotas = *rec.Quotas
		}
	}
	st.Pipes = slices.Grow([]pipeRec(nil), len(pipes))
	for _, id := range sortedKeys(pipes) {
		st.Pipes = append(st.Pipes, pipes[id])
	}
	st.Bookings = slices.Grow([]bookingRec(nil), len(books))
	bids := make([]int, 0, len(books))
	for id := range books {
		bids = append(bids, id)
	}
	sort.Ints(bids)
	for _, id := range bids {
		st.Bookings = append(st.Bookings, books[id])
	}
	return st, nil
}

// upsertConnRec replaces the record with r's ID in the ID-ordered recs, or
// inserts r in its place; a fresh ID usually sorts last.
func upsertConnRec(recs []connRec, r *connRec) []connRec {
	if n := len(recs); n == 0 || recs[n-1].ID < r.ID {
		return append(recs, *r)
	}
	i := sort.Search(len(recs), func(i int) bool { return recs[i].ID >= r.ID })
	if recs[i].ID == r.ID {
		recs[i] = *r
		return recs
	}
	return slices.Insert(recs, i, *r)
}

func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// ReplayDurable folds a recovered snapshot+WAL and returns the canonical
// clock-zeroed serialization, without building a controller — the pure-replay
// reference the crash harness compares both the shadow and the rehydrated
// controller against.
func ReplayDurable(snapshot []byte, entries []journal.Entry) ([]byte, error) {
	st, err := foldState(snapshot, entries)
	if err != nil {
		return nil, err
	}
	st.Now = 0
	return appendState(nil, nil, &st, nil)
}

// commitSet names the entities one commit point touched.
type commitSet struct {
	reason   string
	conns    []*Connection
	pipes    []*otn.Pipe
	delPipes []otn.PipeID
	bookings []*Booking
	links    bool // record the authoritative down-link set
	quotas   bool // record the authoritative quota set
}

// journalCommit writes one commit record for cs and snapshots on cadence.
// With no journal configured it is a no-op (except for feeding the flight
// recorder, which tails commit records whether or not they hit disk).
//
// The record is written, not synced: the controller runs under its caller's
// lock and the fsync belongs after it. What the caller must still wait for —
// or could not have, because the write itself failed — is handed over by
// TakeUnsynced. A failure is also a counter and an audit-log event, never a
// crash: the network keeps running on the in-memory database, as the paper's
// controller would.
func (c *Controller) journalCommit(cs commitSet) {
	if c.jrnl == nil && c.flight == nil {
		return
	}
	rec := &c.commitBuf
	*rec = commitRec{
		Reason:      cs.reason,
		Now:         int64(c.k.Now()),
		NextConn:    c.nextConn,
		LpSeq:       c.lpSeq,
		NextBooking: c.nextBooking,
		NextPipe:    c.fabric.NextID(),
		Conns:       rec.Conns[:0],
		Pipes:       rec.Pipes[:0],
		DelPipes:    rec.DelPipes[:0],
		Bookings:    rec.Bookings[:0],
	}
	seenConn := map[ConnID]bool{}
	for _, conn := range cs.conns {
		if conn == nil || seenConn[conn.ID] {
			continue
		}
		seenConn[conn.ID] = true
		if r, ok := c.connRecOf(conn); ok {
			rec.Conns = append(rec.Conns, r)
		}
	}
	slices.SortFunc(rec.Conns, func(a, b connRec) int { return strings.Compare(a.ID, b.ID) })
	seenPipe := map[otn.PipeID]bool{}
	for _, p := range cs.pipes {
		if p == nil || seenPipe[p.ID()] {
			continue
		}
		seenPipe[p.ID()] = true
		if c.fabric.Pipe(p.ID()) == nil {
			// Retired since the caller captured it.
			rec.DelPipes = append(rec.DelPipes, string(p.ID()))
			continue
		}
		rec.Pipes = append(rec.Pipes, c.pipeRecOf(p))
	}
	slices.SortFunc(rec.Pipes, func(a, b pipeRec) int { return strings.Compare(a.ID, b.ID) })
	for _, id := range cs.delPipes {
		if !seenPipe[id] {
			seenPipe[id] = true
			rec.DelPipes = append(rec.DelPipes, string(id))
		}
	}
	sort.Strings(rec.DelPipes)
	for _, b := range cs.bookings {
		rec.Bookings = append(rec.Bookings, bookingRecOf(b))
	}
	slices.SortFunc(rec.Bookings, func(a, b bookingRec) int { return cmp.Compare(a.ID, b.ID) })
	if cs.links {
		dl := c.downLinkRecs()
		rec.DownLinks = &dl
	}
	if cs.quotas {
		q := c.quotaRecs()
		rec.Quotas = &q
	}
	c.encBuf = commitFields.Append(c.encBuf[:0], rec)
	data := c.encBuf
	if c.flight != nil {
		// The recorder keeps what it is given; the buffer is the next commit's.
		c.flight.Commit(c.k.Now(), cs.reason, bytes.Clone(data))
	}
	if c.jrnl == nil {
		return
	}
	seq, err := c.jrnl.Write(recKindCommit, data)
	if err != nil {
		c.commitLost(fmt.Errorf("appending %s commit: %w", cs.reason, err))
		return
	}
	c.unsynced = seq
	if c.snapshotEvery > 0 && c.jrnl.AppendsSinceSnapshot() >= c.nextSnapshot {
		c.snapshotNow()
	}
}

// journalFailed counts and logs a journal failure.
func (c *Controller) journalFailed(err error) {
	c.ins.journalErrs.Inc()
	c.log(nil, "journal-error", "%v", err)
}

// commitLost records a commit that is applied but never reached the file.
func (c *Controller) commitLost(err error) {
	c.journalFailed(err)
	if c.unwritten == nil {
		c.unwritten = err
	}
}

// TakeUnsynced hands over what the commits since the last call left for the
// disk: the journal sequence number of the last one written (0 if none), to
// be passed to the journal's Sync before any of them is acknowledged, and the
// first of them that could not be written at all.
func (c *Controller) TakeUnsynced() (seq uint64, err error) {
	seq, err = c.unsynced, c.unwritten
	c.unsynced, c.unwritten = 0, nil
	return seq, err
}

// snapshotNow writes a full state snapshot, after which the journal rotates
// the WAL and compacts the covered segments. Connections are encoded one at a
// time straight off the index into the controller's encode buffer, which goes
// to the journal a chunk at a time: the snapshot's memory cost is one chunk
// plus the small entity sets, not a second copy of the database.
//
// Whatever the outcome, the next snapshot is due snapshotEvery appends after
// this one: after a success that is the usual cadence, after a failure it
// spares every commit in between a full re-encode under the caller's lock and
// a journal-error event.
func (c *Controller) snapshotNow() {
	if c.jrnl == nil {
		return
	}
	sp := c.tr.Start(obs.SpanRef{}, "journal:snapshot")
	hdr := c.captureHeader()
	w, err := c.jrnl.BeginSnapshot()
	if err == nil {
		c.encBuf, err = appendState(c.encBuf[:0], w, &hdr, c.connRecs())
		if err == nil {
			_, err = w.Write(c.encBuf)
		}
		if err != nil {
			w.Abort()
		} else {
			err = w.Commit()
		}
	}
	sp.EndErr(err)
	if err != nil {
		c.journalFailed(fmt.Errorf("snapshot: %w", err))
	}
	c.nextSnapshot = c.jrnl.AppendsSinceSnapshot() + c.snapshotEvery
}

// streamState writes st's canonical serialization to w a chunk at a time,
// through the same appenders as the snapshot: byte-identical to what
// encoding/json marshals for st.
func streamState(w io.Writer, st *stateRec) error {
	b, err := appendState(nil, w, st, nil)
	if err == nil {
		_, err = w.Write(b)
	}
	return err
}
