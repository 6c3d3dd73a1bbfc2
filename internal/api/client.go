package api

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/url"
)

// Client talks to a griphond server.
type Client struct {
	base string
	http *http.Client
}

// NewClient returns a client for the given base URL (e.g.
// "http://localhost:8580").
func NewClient(base string) *Client {
	return &Client{base: base, http: &http.Client{}}
}

func (c *Client) do(method, path string, in, out any) error {
	var body io.Reader
	if in != nil {
		buf, err := json.Marshal(in)
		if err != nil {
			return err
		}
		body = bytes.NewReader(buf)
	}
	req, err := http.NewRequest(method, c.base+path, body)
	if err != nil {
		return err
	}
	if in != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		var apiErr ErrorJSON
		if json.Unmarshal(raw, &apiErr) == nil && apiErr.Error != "" {
			return fmt.Errorf("griphond: %s", apiErr.Error)
		}
		return fmt.Errorf("griphond: HTTP %d: %s", resp.StatusCode, raw)
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(raw, out)
}

// Connect provisions a connection (composites return several components).
func (c *Client) Connect(req ConnectRequest) (ConnectResponse, error) {
	var out ConnectResponse
	err := c.do(http.MethodPost, "/api/v1/connect", req, &out)
	return out, err
}

// Disconnect tears a connection down.
func (c *Client) Disconnect(customer, id string) error {
	return c.do(http.MethodPost, "/api/v1/disconnect", DisconnectRequest{Customer: customer, ID: id}, nil)
}

// Connections lists a customer's connections.
func (c *Client) Connections(customer string) ([]ConnectionJSON, error) {
	var out ConnectResponse
	err := c.do(http.MethodGet, "/api/v1/connections?customer="+url.QueryEscape(customer), nil, &out)
	return out.Connections, err
}

// Roll triggers bridge-and-roll on a connection.
func (c *Client) Roll(customer, id string) (ConnectionJSON, error) {
	var out ConnectionJSON
	err := c.do(http.MethodPost, "/api/v1/roll", RollRequest{Customer: customer, ID: id}, &out)
	return out, err
}

// Regroom re-grooms a connection if a better path exists.
func (c *Client) Regroom(customer, id string) (RegroomResponse, error) {
	var out RegroomResponse
	err := c.do(http.MethodPost, "/api/v1/regroom", RollRequest{Customer: customer, ID: id}, &out)
	return out, err
}

// Adjust resizes a connection in place.
func (c *Client) Adjust(customer, id, rate string) (ConnectionJSON, error) {
	var out ConnectionJSON
	err := c.do(http.MethodPost, "/api/v1/adjust", AdjustRequest{Customer: customer, ID: id, Rate: rate}, &out)
	return out, err
}

// Defrag runs a spectrum-defragmentation sweep.
func (c *Client) Defrag() (DefragResponse, error) {
	var out DefragResponse
	err := c.do(http.MethodPost, "/api/v1/defrag", struct{}{}, &out)
	return out, err
}

// Cut fails a fiber link.
func (c *Client) Cut(link string) error {
	return c.do(http.MethodPost, "/api/v1/cut", LinkRequest{Link: link}, nil)
}

// Repair returns a fiber link to service.
func (c *Client) Repair(link string) error {
	return c.do(http.MethodPost, "/api/v1/repair", LinkRequest{Link: link}, nil)
}

// Maintenance schedules (and plays out) a maintenance window.
func (c *Client) Maintenance(link, in, window string) (MaintenanceJSON, error) {
	var out MaintenanceJSON
	err := c.do(http.MethodPost, "/api/v1/maintenance", LinkRequest{Link: link, In: in, Window: window}, &out)
	return out, err
}

// Advance moves the virtual clock.
func (c *Client) Advance(d string) error {
	return c.do(http.MethodPost, "/api/v1/advance", AdvanceRequest{Duration: d}, nil)
}

// Stats fetches a resource snapshot.
func (c *Client) Stats() (StatsJSON, error) {
	var out StatsJSON
	err := c.do(http.MethodGet, "/api/v1/stats", nil, &out)
	return out, err
}

// Events fetches the audit log, optionally filtered by connection.
func (c *Client) Events(conn string) ([]EventJSON, error) {
	path := "/api/v1/events"
	if conn != "" {
		path += "?conn=" + url.QueryEscape(conn)
	}
	var out []EventJSON
	err := c.do(http.MethodGet, path, nil, &out)
	return out, err
}

// EventsSince fetches audit-log entries after the cursor plus the cursor to
// resume from.
func (c *Client) EventsSince(since int) (EventsPage, error) {
	var out EventsPage
	err := c.do(http.MethodGet, fmt.Sprintf("/api/v1/events?since=%d", since), nil, &out)
	return out, err
}

// Alarms fetches the correlated alarm stream after the seq cursor, filtered
// to one customer's view ("" = operator).
func (c *Client) Alarms(customer string, since uint64) (AlarmsResponse, error) {
	path := fmt.Sprintf("/api/v1/alarms?since=%d", since)
	if customer != "" {
		path += "&customer=" + url.QueryEscape(customer)
	}
	var out AlarmsResponse
	err := c.do(http.MethodGet, path, nil, &out)
	return out, err
}

// SLA fetches a customer's availability report ("" = operator view).
func (c *Client) SLA(customer string) (SLAJSON, error) {
	path := "/api/v1/sla"
	if customer != "" {
		path += "?customer=" + url.QueryEscape(customer)
	}
	var out SLAJSON
	err := c.do(http.MethodGet, path, nil, &out)
	return out, err
}

// Bill fetches a customer's cumulative usage.
func (c *Client) Bill(customer string) (BillJSON, error) {
	var out BillJSON
	err := c.do(http.MethodGet, "/api/v1/bill?customer="+url.QueryEscape(customer), nil, &out)
	return out, err
}

// raw fetches a non-JSON endpoint body verbatim.
func (c *Client) raw(path string) ([]byte, error) {
	resp, err := c.http.Get(c.base + path)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		var apiErr ErrorJSON
		if json.Unmarshal(body, &apiErr) == nil && apiErr.Error != "" {
			return nil, fmt.Errorf("griphond: %s", apiErr.Error)
		}
		return nil, fmt.Errorf("griphond: HTTP %d: %s", resp.StatusCode, body)
	}
	return body, nil
}

// Metrics fetches the instrument registry in Prometheus text format.
func (c *Client) Metrics() (string, error) {
	body, err := c.raw("/api/v1/metrics")
	return string(body), err
}

// Trace fetches the recorded spans. format is "" or "chrome" for Chrome
// trace_event JSON, "jsonl" for JSON Lines. Fails when the server runs
// without tracing.
func (c *Client) Trace(format string) ([]byte, error) {
	path := "/api/v1/trace"
	if format != "" {
		path += "?format=" + url.QueryEscape(format)
	}
	return c.raw(path)
}

// Topology fetches the network description.
func (c *Client) Topology() (TopologyJSON, error) {
	var out TopologyJSON
	err := c.do(http.MethodGet, "/api/v1/topology", nil, &out)
	return out, err
}
