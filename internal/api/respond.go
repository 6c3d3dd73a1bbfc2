package api

// Response appenders. Every answer the API renders is appended by hand,
// straight from controller state into the pooled reply: no wire struct in
// between and no reflection. Each appender emits exactly the bytes
// encoding/json emitted for the wire type in types.go that names the same
// response — fields in declaration order under their json names, omitempty
// where the tag says so, null for a list the old conversion left nil — so a
// client decoding those types sees nothing change. FuzzResponseEncoding holds
// every one to encoding/json over the conversions it replaced; the string,
// list and float primitives are internal/jsonenc's, shared with the journal's
// record encoder.

import (
	"fmt"
	"math"
	"strconv"
	"time"

	"griphon/internal/alarms"
	"griphon/internal/core"
	"griphon/internal/jsonenc"
	"griphon/internal/rwa"
	"griphon/internal/sim"
	"griphon/internal/slo"
	"griphon/internal/topo"
)

// unsupportedFloat is a float encoding/json refuses: NaN or ±Inf. No handler
// produces one; should one appear, appendFloat panics with it and render
// recovers it into the 500 encoding/json's refusal gave.
type unsupportedFloat float64

func (f unsupportedFloat) Error() string {
	return "json: unsupported value: " + strconv.FormatFloat(float64(f), 'g', -1, 64)
}

// appendFloat appends f as encoding/json does, refusing what it refuses.
func appendFloat(b []byte, f float64) []byte {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		panic(unsupportedFloat(f))
	}
	return jsonenc.AppendFloat(b, f)
}

func appendKeyFloat(b []byte, key string, f float64) []byte {
	return appendFloat(append(b, key...), f)
}

// appendKeyDuration appends key and d as a JSON string, rendered as
// time.Duration.String renders it (sim.Time.String too). That text is ASCII
// digits, '.', '-', unit letters and µ, none of which JSON escapes.
func appendKeyDuration[D ~int64](b []byte, key string, d D) []byte {
	b = appendDuration(append(append(b, key...), '"'), time.Duration(d))
	return append(b, '"')
}

// appendDuration appends d as time.Duration.String renders it: "0s", "1.5µs",
// "2h0m0.5s", "-3m". It follows the standard library's own formatter digit
// for digit, without the string that allocates.
func appendDuration(b []byte, d time.Duration) []byte {
	var buf [32]byte
	w := len(buf)
	u := uint64(d)
	if d < 0 {
		u = -u
	}
	if u < uint64(time.Second) {
		// Under a second, the largest unit that keeps an integer part.
		w--
		buf[w] = 's'
		prec := 0
		switch {
		case u == 0:
			return append(b, "0s"...)
		case u < uint64(time.Microsecond):
			w--
			buf[w] = 'n'
		case u < uint64(time.Millisecond):
			prec = 3
			w -= 2
			copy(buf[w:], "µ")
		default:
			prec = 6
			w--
			buf[w] = 'm'
		}
		w, u = durationFrac(buf[:w], u, prec)
		w = durationInt(buf[:w], u)
	} else {
		w--
		buf[w] = 's'
		w, u = durationFrac(buf[:w], u, 9)
		w = durationInt(buf[:w], u%60)
		if u /= 60; u > 0 {
			w--
			buf[w] = 'm'
			w = durationInt(buf[:w], u%60)
			if u /= 60; u > 0 {
				w--
				buf[w] = 'h'
				w = durationInt(buf[:w], u)
			}
		}
	}
	if d < 0 {
		w--
		buf[w] = '-'
	}
	return append(b, buf[w:]...)
}

// durationFrac writes the prec low decimal digits of v into the tail of buf
// as a fraction, dropping trailing zeros and the point if nothing is left,
// and returns where it started and v without those digits.
func durationFrac(buf []byte, v uint64, prec int) (int, uint64) {
	w := len(buf)
	printed := false
	for i := 0; i < prec; i++ {
		digit := v % 10
		printed = printed || digit != 0
		if printed {
			w--
			buf[w] = byte(digit) + '0'
		}
		v /= 10
	}
	if printed {
		w--
		buf[w] = '.'
	}
	return w, v
}

// durationInt writes v in decimal into the tail of buf and returns where it
// started.
func durationInt(buf []byte, v uint64) int {
	w := len(buf)
	for {
		w--
		buf[w] = byte(v%10) + '0'
		if v /= 10; v == 0 {
			return w
		}
	}
}

// appendOrNull appends s as a JSON array, one elem call per element, or null
// when s is empty: a list the old conversion built by appending to a nil
// slice.
func appendOrNull[T any](b []byte, s []T, elem func([]byte, *T) []byte) []byte {
	if len(s) == 0 {
		return append(b, "null"...)
	}
	return jsonenc.AppendElems(b, s, elem)
}

// appendArray appends s as a JSON array, one elem call per element, [] when
// s is empty: a list the old conversion made with make.
func appendArray[T any](b []byte, s []T, elem func([]byte, *T) []byte) []byte {
	if s == nil {
		s = []T{}
	}
	return jsonenc.AppendElems(b, s, elem)
}

// appendOmitEmpty appends key and s as a JSON array, one elem call per
// element, or nothing when s is empty: an omitempty list.
func appendOmitEmpty[T any](b []byte, key string, s []T, elem func([]byte, *T) []byte) []byte {
	if len(s) == 0 {
		return b
	}
	return jsonenc.AppendElems(append(b, key...), s, elem)
}

// appendError appends an ErrorJSON.
func appendError(b []byte, msg string) []byte {
	return append(jsonenc.AppendKeyString(b, `{"error":`, msg), '}')
}

// appendConnections appends a ConnectResponse: {"connections":[...]}, null
// when conns is empty (a listing of a customer with none; a connect always
// has at least one).
func appendConnections(b []byte, conns []*core.Connection, now sim.Time, g *topo.Graph) []byte {
	b = appendOrNull(append(b, `{"connections":`...), conns, func(b []byte, c **core.Connection) []byte {
		return appendConnection(b, *c, now, g)
	})
	return append(b, '}')
}

// appendConnection appends a ConnectionJSON for c; now is the current
// virtual time (for a still-open outage) and g the topology (for the
// propagation delay).
func appendConnection(b []byte, c *core.Connection, now sim.Time, g *topo.Graph) []byte {
	b = jsonenc.AppendKeyString(b, `{"id":`, string(c.ID))
	b = jsonenc.AppendKeyString(b, `,"customer":`, string(c.Customer))
	b = jsonenc.AppendKeyString(b, `,"from":`, string(c.From))
	b = jsonenc.AppendKeyString(b, `,"to":`, string(c.To))
	b = append(c.Rate.Append(append(b, `,"rate":"`...)), '"')
	b = jsonenc.AppendKeyString(b, `,"layer":`, c.Layer.String())
	b = jsonenc.AppendKeyString(b, `,"protection":`, c.Protect.String())
	b = jsonenc.AppendKeyString(b, `,"state":`, c.State.String())
	route := c.Route()
	if len(route.Nodes) > 0 {
		b = appendPath(append(b, `,"route":`...), route)
	}
	setup, outage := c.SetupTime(), c.Outage(now)
	if setup > 0 {
		b = appendKeyDuration(b, `,"setup_time":`, setup)
	}
	if outage > 0 {
		b = appendKeyDuration(b, `,"total_outage":`, outage)
	}
	b = jsonenc.AppendKeyInt(b, `,"restorations":`, int64(c.Restorations))
	b = jsonenc.AppendKeyInt(b, `,"rolls":`, int64(c.Rolls))
	b = appendKeyFloat(b, `,"setup_seconds":`, max(setup, 0).Seconds())
	b = jsonenc.AppendKeyInt(b, `,"outage_nanos":`, int64(max(outage, 0)))
	if len(route.Nodes) > 0 && g != nil {
		if ms := rwa.PropagationDelay(g, route) * 1000; ms != 0 {
			b = appendKeyFloat(b, `,"propagation_ms":`, ms)
		}
	}
	return append(b, '}')
}

// appendPath appends p as a JSON string, rendered as topo.Path.String renders
// it ("I-II-IV"). Node names with nothing to escape — all of them, in every
// topology the repository builds — are copied in place.
func appendPath(b []byte, p topo.Path) []byte {
	for _, n := range p.Nodes {
		if !jsonenc.Plain(string(n)) {
			return jsonenc.AppendString(b, p.String())
		}
	}
	b = append(b, '"')
	for i, n := range p.Nodes {
		if i > 0 {
			b = append(b, '-')
		}
		b = append(b, n...)
	}
	return append(b, '"')
}

// appendRegroom appends a RegroomResponse.
func appendRegroom(b []byte, moved bool, c *core.Connection, now sim.Time, g *topo.Graph) []byte {
	b = strconv.AppendBool(append(b, `{"moved":`...), moved)
	b = appendConnection(append(b, `,"connection":`...), c, now, g)
	return append(b, '}')
}

// appendDefrag appends a DefragResponse.
func appendDefrag(b []byte, retuned, maxChannel int) []byte {
	b = jsonenc.AppendKeyInt(b, `{"retuned":`, int64(retuned))
	b = jsonenc.AppendKeyInt(b, `,"max_channel_now":`, int64(maxChannel))
	return append(b, '}')
}

// appendMaintenance appends a MaintenanceJSON.
func appendMaintenance(b []byte, m *core.Maintenance) []byte {
	b = jsonenc.AppendKeyString(b, `{"link":`, string(m.Link))
	b = appendOrNull(append(b, `,"rolled":`...), m.Rolled, appendConnID)
	b = appendOrNull(append(b, `,"unmoved":`...), m.Unmoved, appendConnID)
	b = strconv.AppendBool(append(b, `,"finished":`...), m.Finished)
	return append(b, '}')
}

func appendConnID(b []byte, id *core.ConnID) []byte { return jsonenc.AppendString(b, string(*id)) }

// appendAdvance appends POST /advance's answer, {"now":...}.
func appendAdvance(b []byte, now time.Duration) []byte {
	return append(appendKeyDuration(b, `{"now":`, now), '}')
}

// appendStats appends a StatsJSON; now is the current virtual time.
func appendStats(b []byte, now time.Duration, st *core.Stats) []byte {
	b = appendKeyDuration(b, `{"now":`, now)
	b = jsonenc.AppendKeyInt(b, `,"active":`, int64(st.Active))
	b = jsonenc.AppendKeyInt(b, `,"pending":`, int64(st.Pending))
	b = jsonenc.AppendKeyInt(b, `,"down":`, int64(st.Down))
	b = jsonenc.AppendKeyInt(b, `,"restoring":`, int64(st.Restoring))
	b = jsonenc.AppendKeyInt(b, `,"released":`, int64(st.Released))
	b = jsonenc.AppendKeyInt(b, `,"internal_conns":`, int64(st.InternalConns))
	b = jsonenc.AppendKeyInt(b, `,"channels_in_use":`, int64(st.ChannelsInUse))
	b = jsonenc.AppendKeyInt(b, `,"ots_in_use":`, int64(st.OTsInUse))
	b = jsonenc.AppendKeyInt(b, `,"ots_total":`, int64(st.OTsTotal))
	b = jsonenc.AppendKeyInt(b, `,"pipes":`, int64(st.Pipes))
	b = jsonenc.AppendKeyInt(b, `,"slots_in_use":`, int64(st.SlotsInUse))
	b = jsonenc.AppendKeyInt(b, `,"slots_total":`, int64(st.SlotsTotal))
	if len(st.DownLinks) > 0 {
		b = jsonenc.AppendStrings(append(b, `,"down_links":`...), st.DownLinks)
	}
	return append(b, '}')
}

// appendShards appends a ShardsResponse: each shard's load, in index order
// (a shard set has at least one).
func appendShards(b []byte, set *core.ShardSet) []byte {
	b = jsonenc.AppendKeyInt(b, `{"shards":`, int64(set.Len()))
	b = append(b, `,"per_shard":[`...)
	for i := 0; i < set.Len(); i++ {
		st := set.Shard(i).Ctrl.Snapshot()
		if i > 0 {
			b = append(b, ',')
		}
		b = jsonenc.AppendKeyInt(b, `{"index":`, int64(i))
		b = jsonenc.AppendKeyInt(b, `,"active":`, int64(st.Active))
		b = jsonenc.AppendKeyInt(b, `,"pending":`, int64(st.Pending))
		b = jsonenc.AppendKeyInt(b, `,"down":`, int64(st.Down))
		b = jsonenc.AppendKeyInt(b, `,"channels_in_use":`, int64(st.ChannelsInUse))
		b = jsonenc.AppendKeyInt(b, `,"pipes":`, int64(st.Pipes))
		b = append(b, '}')
	}
	return append(b, "]}"...)
}

// appendBill appends a BillJSON.
func appendBill(b []byte, customer string, gbHours float64) []byte {
	b = jsonenc.AppendKeyString(b, `{"customer":`, customer)
	return append(appendKeyFloat(b, `,"gb_hours":`, gbHours), '}')
}

// appendEventsPage appends an EventsPage: the events after a cursor and the
// cursor to resume from.
func appendEventsPage(b []byte, evs []core.Event, next int) []byte {
	b = appendEvents(append(b, `{"events":`...), evs)
	return append(jsonenc.AppendKeyInt(b, `,"next":`, int64(next)), '}')
}

// appendEvents appends evs as a JSON array of EventJSON.
func appendEvents(b []byte, evs []core.Event) []byte {
	return appendArray(b, evs, appendEvent)
}

// appendEvent appends an EventJSON.
func appendEvent(b []byte, e *core.Event) []byte {
	b = appendKeyDuration(b, `{"at":`, e.At)
	if e.Conn != "" {
		b = jsonenc.AppendKeyString(b, `,"conn":`, string(e.Conn))
	}
	b = jsonenc.AppendKeyString(b, `,"kind":`, e.Kind)
	return append(jsonenc.AppendKeyString(b, `,"text":`, e.Text), '}')
}

// appendAlarms appends an AlarmsResponse: correlated alarm groups and the
// cursor to resume from.
func appendAlarms(b []byte, groups []alarms.Group, next uint64) []byte {
	b = appendArray(append(b, `{"groups":`...), groups, appendGroup)
	b = strconv.AppendUint(append(b, `,"next":`...), next, 10)
	return append(b, '}')
}

// appendGroup appends an AlarmGroupJSON.
func appendGroup(b []byte, g *alarms.Group) []byte {
	b = strconv.AppendUint(append(b, `{"seq":`...), g.Seq, 10)
	b = appendKeyDuration(b, `,"at":`, g.At)
	b = jsonenc.AppendKeyString(b, `,"kind":`, g.Kind.String())
	if g.Link != "" {
		b = jsonenc.AppendKeyString(b, `,"link":`, string(g.Link))
	}
	b = appendAlarm(append(b, `,"root":`...), &g.Root)
	b = appendOrNull(append(b, `,"children":`...), g.Children, appendAlarm)
	return append(b, '}')
}

// appendAlarm appends an AlarmJSON.
func appendAlarm(b []byte, a *alarms.Alarm) []byte {
	b = appendKeyDuration(b, `{"at":`, a.At)
	b = jsonenc.AppendKeyString(b, `,"node":`, string(a.Node))
	if a.Conn != "" {
		b = jsonenc.AppendKeyString(b, `,"conn":`, a.Conn)
	}
	if a.Customer != "" {
		b = jsonenc.AppendKeyString(b, `,"customer":`, a.Customer)
	}
	b = jsonenc.AppendKeyString(b, `,"type":`, a.Type.String())
	b = jsonenc.AppendKeyString(b, `,"detail":`, a.Detail)
	return append(b, '}')
}

// appendSLA appends an SLAJSON: a customer's availability report.
func appendSLA(b []byte, rep *slo.CustomerReport) []byte {
	b = append(b, '{')
	if rep.Customer != "" {
		b = append(jsonenc.AppendKeyString(b, `"customer":`, rep.Customer), ',')
	}
	b = appendKeyDuration(b, `"now":`, rep.Now)
	b = appendKeyFloat(b, `,"lifetime_seconds":`, rep.TotalLifetime.Seconds())
	b = appendKeyFloat(b, `,"downtime_seconds":`, rep.TotalDowntime.Seconds())
	b = appendKeyFloat(b, `,"availability":`, rep.Availability)
	b = jsonenc.AppendKeyInt(b, `,"outages":`, int64(rep.OutageCount))
	b = jsonenc.AppendKeyInt(b, `,"unattributed":`, int64(rep.Unattributed))
	b = appendOrNull(append(b, `,"connections":`...), rep.Conns, func(b []byte, cr *slo.ConnReport) []byte {
		return appendSLAConn(b, cr, rep.Now)
	})
	return append(b, '}')
}

// appendSLAConn appends an SLAConnJSON; now closes still-open outages.
func appendSLAConn(b []byte, cr *slo.ConnReport, now sim.Time) []byte {
	b = jsonenc.AppendKeyString(b, `{"id":`, cr.Conn)
	b = jsonenc.AppendKeyString(b, `,"customer":`, cr.Customer)
	b = appendKeyDuration(b, `,"activated":`, cr.ActivatedAt)
	if cr.Released {
		b = appendKeyDuration(b, `,"released":`, cr.ReleasedAt)
	}
	if cr.Degraded {
		b = append(b, `,"degraded":true`...)
	}
	b = appendKeyFloat(b, `,"lifetime_seconds":`, cr.Lifetime.Seconds())
	b = appendKeyFloat(b, `,"downtime_seconds":`, cr.Downtime.Seconds())
	b = appendKeyFloat(b, `,"availability":`, cr.Availability)
	b = appendOmitEmpty(b, `,"outages":`, cr.Outages, func(b []byte, o *slo.Outage) []byte { return appendSLAOutage(b, o, now) })
	return append(b, '}')
}

// appendSLAOutage appends an SLAOutageJSON.
func appendSLAOutage(b []byte, o *slo.Outage, now sim.Time) []byte {
	b = appendKeyDuration(b, `{"start":`, o.Start)
	if o.Open {
		b = append(b, `,"open":true`...)
	} else {
		b = appendKeyDuration(b, `,"end":`, o.End)
	}
	b = appendKeyFloat(b, `,"seconds":`, o.Duration(now).Seconds())
	b = jsonenc.AppendKeyString(b, `,"cause":`, o.Cause.String())
	if o.Link != "" {
		b = jsonenc.AppendKeyString(b, `,"link":`, string(o.Link))
	}
	if o.Detail != "" {
		b = jsonenc.AppendKeyString(b, `,"detail":`, o.Detail)
	}
	if o.Resolution != "" {
		b = jsonenc.AppendKeyString(b, `,"resolution":`, o.Resolution)
	}
	b = appendOmitEmpty(b, `,"phases":`, o.Phases, func(b []byte, p *slo.Phase) []byte { return appendSLAPhase(b, p, now) })
	b = appendOmitEmpty(b, `,"blocks":`, o.Blocks, appendSLABlock)
	return append(b, '}')
}

// appendSLAPhase appends an SLAPhaseJSON; an open phase runs until now.
func appendSLAPhase(b []byte, p *slo.Phase, now sim.Time) []byte {
	b = jsonenc.AppendKeyString(b, `{"name":`, p.Name)
	b = appendKeyDuration(b, `,"start":`, p.Start)
	if p.Open {
		b = appendKeyFloat(b, `,"seconds":`, now.Sub(p.Start).Seconds())
		return append(b, `,"open":true}`...)
	}
	return append(appendKeyFloat(b, `,"seconds":`, p.Duration().Seconds()), '}')
}

// appendSLABlock appends an SLABlockJSON.
func appendSLABlock(b []byte, k *slo.Block) []byte {
	b = appendKeyDuration(b, `{"at":`, k.At)
	return append(jsonenc.AppendKeyString(b, `,"reason":`, k.Reason), '}')
}

// appendTopology appends a TopologyJSON for g: its PoPs, fibers and sites in
// ID order. NewServer renders it once; the graph never changes.
func appendTopology(b []byte, g *topo.Graph) []byte {
	var pops, fibers, sites []string
	for _, n := range g.Nodes() {
		pops = append(pops, string(n.ID))
	}
	for _, l := range g.Links() {
		fibers = append(fibers, fmt.Sprintf("%s (%.0f km)", l.ID, l.KM))
	}
	for _, site := range g.Sites() {
		sites = append(sites, fmt.Sprintf("%s @ %s (%.0fG access)", site.ID, site.Home, site.AccessGbps))
	}
	b = jsonenc.AppendStrings(append(b, `{"pops":`...), pops)
	b = jsonenc.AppendStrings(append(b, `,"fibers":`...), fibers)
	b = jsonenc.AppendStrings(append(b, `,"sites":`...), sites)
	return append(b, '}')
}
