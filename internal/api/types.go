// Package api defines the wire protocol of griphond — the HTTP/JSON service
// that plays the role of the paper's customer GUI backend (§2.2): per-
// customer connection management (set up / tear down on demand) and simple
// fault visibility (connection status, affected-by-outage, restoration
// progress), hiding the network's internals from the customer. It also
// carries the operator-side endpoints (fiber cuts, repairs, maintenance,
// clock control) that a lab GUI would expose.
//
// The types below are the wire schema. Clients — Client, griphonctl, the
// benchmark — decode them with encoding/json; the server appends the same
// bytes by hand, straight from controller state (respond.go).
package api

import "time"

// ConnectionJSON is the customer-visible view of a connection.
type ConnectionJSON struct {
	ID           string        `json:"id"`
	Customer     string        `json:"customer"`
	From         string        `json:"from"`
	To           string        `json:"to"`
	Rate         string        `json:"rate"`
	Layer        string        `json:"layer"`
	Protection   string        `json:"protection"`
	State        string        `json:"state"`
	Route        string        `json:"route,omitempty"`
	SetupTime    string        `json:"setup_time,omitempty"`
	TotalOutage  string        `json:"total_outage,omitempty"`
	Restorations int           `json:"restorations"`
	Rolls        int           `json:"rolls"`
	SetupSeconds float64       `json:"setup_seconds"`
	OutageNanos  time.Duration `json:"outage_nanos"`
	// PropagationMS is the one-way light propagation delay of the current
	// route in milliseconds (zero for OTN circuits, whose fiber path is
	// the pipes' concern).
	PropagationMS float64 `json:"propagation_ms,omitempty"`
}

// ConnectRequest asks for a new connection.
type ConnectRequest struct {
	Customer string `json:"customer"`
	From     string `json:"from"`
	To       string `json:"to"`
	// Rate is textual: "1G", "2.5G", "10G", "12G", "40G".
	Rate string `json:"rate"`
	// Protection: "restore" (default), "1+1", "unprotected",
	// "shared-mesh".
	Protection string `json:"protection,omitempty"`
}

// ConnectResponse lists the provisioned components (composites have several).
type ConnectResponse struct {
	Connections []ConnectionJSON `json:"connections"`
}

// DisconnectRequest tears a connection down.
type DisconnectRequest struct {
	Customer string `json:"customer"`
	ID       string `json:"id"`
}

// RollRequest triggers bridge-and-roll or re-grooming.
type RollRequest struct {
	Customer string `json:"customer"`
	ID       string `json:"id"`
}

// AdjustRequest resizes a connection in place.
type AdjustRequest struct {
	Customer string `json:"customer"`
	ID       string `json:"id"`
	Rate     string `json:"rate"`
}

// DefragResponse reports a defragmentation sweep.
type DefragResponse struct {
	Retuned       int `json:"retuned"`
	MaxChannelNow int `json:"max_channel_now"`
}

// RegroomResponse reports whether re-grooming moved the connection.
type RegroomResponse struct {
	Moved      bool           `json:"moved"`
	Connection ConnectionJSON `json:"connection"`
}

// LinkRequest names a fiber link (cut / repair / maintenance).
type LinkRequest struct {
	Link string `json:"link"`
	// In and Window apply to maintenance scheduling only.
	In     string `json:"in,omitempty"`
	Window string `json:"window,omitempty"`
}

// AdvanceRequest moves the virtual clock forward.
type AdvanceRequest struct {
	Duration string `json:"duration"`
}

// StatsJSON mirrors core.Stats for the wire.
type StatsJSON struct {
	Now           string   `json:"now"`
	Active        int      `json:"active"`
	Pending       int      `json:"pending"`
	Down          int      `json:"down"`
	Restoring     int      `json:"restoring"`
	Released      int      `json:"released"`
	InternalConns int      `json:"internal_conns"`
	ChannelsInUse int      `json:"channels_in_use"`
	OTsInUse      int      `json:"ots_in_use"`
	OTsTotal      int      `json:"ots_total"`
	Pipes         int      `json:"pipes"`
	SlotsInUse    int      `json:"slots_in_use"`
	SlotsTotal    int      `json:"slots_total"`
	DownLinks     []string `json:"down_links,omitempty"`
}

// EventJSON is one audit-log entry.
type EventJSON struct {
	At   string `json:"at"`
	Conn string `json:"conn,omitempty"`
	Kind string `json:"kind"`
	Text string `json:"text"`
}

// EventsPage is the cursored events response (GET /api/v1/events?since=N).
// Resuming from Next yields no gaps or repeats.
type EventsPage struct {
	Events []EventJSON `json:"events"`
	Next   int         `json:"next"`
}

// AlarmJSON is one element alarm in a customer's stream.
type AlarmJSON struct {
	At       string `json:"at"`
	Node     string `json:"node"`
	Conn     string `json:"conn,omitempty"`
	Customer string `json:"customer,omitempty"`
	Type     string `json:"type"`
	Detail   string `json:"detail"`
}

// AlarmGroupJSON is one correlated alarm group: the synthesized root event
// plus the per-circuit children it explains.
type AlarmGroupJSON struct {
	Seq      uint64      `json:"seq"`
	At       string      `json:"at"`
	Kind     string      `json:"kind"`
	Link     string      `json:"link,omitempty"`
	Root     AlarmJSON   `json:"root"`
	Children []AlarmJSON `json:"children"`
}

// AlarmsResponse is the alarm stream page; resume from Next.
type AlarmsResponse struct {
	Groups []AlarmGroupJSON `json:"groups"`
	Next   uint64           `json:"next"`
}

// SLAPhaseJSON is one phase of an outage (phases tile the interval).
type SLAPhaseJSON struct {
	Name    string  `json:"name"`
	Start   string  `json:"start"`
	Seconds float64 `json:"seconds"`
	Open    bool    `json:"open,omitempty"`
}

// SLABlockJSON is one blocked restoration attempt inside an outage.
type SLABlockJSON struct {
	At     string `json:"at"`
	Reason string `json:"reason"`
}

// SLAOutageJSON is one attributed down interval.
type SLAOutageJSON struct {
	Start      string         `json:"start"`
	End        string         `json:"end,omitempty"`
	Open       bool           `json:"open,omitempty"`
	Seconds    float64        `json:"seconds"`
	Cause      string         `json:"cause"`
	Link       string         `json:"link,omitempty"`
	Detail     string         `json:"detail,omitempty"`
	Resolution string         `json:"resolution,omitempty"`
	Phases     []SLAPhaseJSON `json:"phases,omitempty"`
	Blocks     []SLABlockJSON `json:"blocks,omitempty"`
}

// SLAConnJSON is one connection's row in the availability report.
type SLAConnJSON struct {
	ID           string          `json:"id"`
	Customer     string          `json:"customer"`
	Activated    string          `json:"activated"`
	Released     string          `json:"released,omitempty"`
	Degraded     bool            `json:"degraded,omitempty"`
	LifetimeS    float64         `json:"lifetime_seconds"`
	DowntimeS    float64         `json:"downtime_seconds"`
	Availability float64         `json:"availability"`
	Outages      []SLAOutageJSON `json:"outages,omitempty"`
}

// SLAJSON is a customer's availability report.
type SLAJSON struct {
	Customer     string        `json:"customer,omitempty"`
	Now          string        `json:"now"`
	LifetimeS    float64       `json:"lifetime_seconds"`
	DowntimeS    float64       `json:"downtime_seconds"`
	Availability float64       `json:"availability"`
	Outages      int           `json:"outages"`
	Unattributed int           `json:"unattributed"`
	Conns        []SLAConnJSON `json:"connections"`
}

// TopologyJSON describes the network for display.
type TopologyJSON struct {
	PoPs   []string `json:"pops"`
	Fibers []string `json:"fibers"`
	Sites  []string `json:"sites"`
}

// ShardJSON reports one control-plane shard's load.
type ShardJSON struct {
	Index         int `json:"index"`
	Active        int `json:"active"`
	Pending       int `json:"pending"`
	Down          int `json:"down"`
	ChannelsInUse int `json:"channels_in_use"`
	Pipes         int `json:"pipes"`
}

// ShardsResponse describes the sharded control plane.
type ShardsResponse struct {
	Shards   int         `json:"shards"`
	PerShard []ShardJSON `json:"per_shard"`
}

// BillJSON reports a customer's usage bill.
type BillJSON struct {
	Customer string  `json:"customer"`
	GbHours  float64 `json:"gb_hours"`
}

// ErrorJSON carries an API error.
type ErrorJSON struct {
	Error string `json:"error"`
}

// MaintenanceJSON reports a maintenance outcome.
type MaintenanceJSON struct {
	Link     string   `json:"link"`
	Rolled   []string `json:"rolled"`
	Unmoved  []string `json:"unmoved"`
	Finished bool     `json:"finished"`
}
