package core

import (
	"testing"
	"time"

	"griphon/internal/bw"
	"griphon/internal/sim"
)

// fragmentSpectrum creates churn that leaves survivors on high channels:
// connect several wavelengths (taking channels 1..n first-fit), then release
// the low-channel ones.
func fragmentSpectrum(t *testing.T, k *sim.Kernel, c *Controller) []*Connection {
	t.Helper()
	var conns []*Connection
	for i := 0; i < 4; i++ {
		conns = append(conns, mustConnect(t, k, c, Request{
			Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate10G,
		}))
	}
	// Release the first three: channels 1..3 free up, the survivor sits
	// on channel 4.
	for _, conn := range conns[:3] {
		job, err := c.Disconnect("x", conn.ID)
		if err != nil {
			t.Fatal(err)
		}
		k.Run()
		if job.Err() != nil {
			t.Fatal(job.Err())
		}
	}
	return conns[3:]
}

func TestDefragmentSpectrum(t *testing.T) {
	k, c := newTestbed(t, 120)
	survivors := fragmentSpectrum(t, k, c)
	conn := survivors[0]
	if got := conn.Channels()[0]; got != 4 {
		t.Fatalf("survivor on channel %d, want 4 (fragmented)", got)
	}
	if c.MaxChannelInUse() != 4 {
		t.Fatalf("max channel = %d", c.MaxChannelInUse())
	}

	job, moved := c.DefragmentSpectrum()
	if moved != 1 {
		t.Fatalf("moved = %d, want 1", moved)
	}
	k.Run()
	if job.Err() != nil {
		t.Fatal(job.Err())
	}
	if got := conn.Channels()[0]; got != 1 {
		t.Errorf("channel after defrag = %d, want 1", got)
	}
	if c.MaxChannelInUse() != 1 {
		t.Errorf("max channel after defrag = %d", c.MaxChannelInUse())
	}
	// The hit is a brief retune, not an outage.
	if conn.TotalOutage == 0 || conn.TotalOutage > 200*time.Millisecond {
		t.Errorf("defrag hit = %v", conn.TotalOutage)
	}
	// ROADM state moved with the channel.
	ch := conn.Channels()[0]
	link := conn.Route().Links[0]
	if !terminatedAt(c.roadms.Node(conn.Route().Src()), ch, link) {
		t.Error("ROADM termination not re-pointed to the new channel")
	}
	// A second sweep is a no-op.
	_, moved = c.DefragmentSpectrum()
	if moved != 0 {
		t.Errorf("second sweep moved %d", moved)
	}
	k.Run()
}

func TestDefragSkipsNonMovable(t *testing.T) {
	k, c := newTestbed(t, 121)
	// Channel 1 is the lowest and already in use by the only connection.
	conn := mustConnect(t, k, c, Request{Customer: "x", From: "DC-A", To: "DC-B", Rate: bw.Rate10G})
	if conn.Channels()[0] != 1 {
		t.Fatalf("channel = %d", conn.Channels()[0])
	}
	_, moved := c.DefragmentSpectrum()
	if moved != 0 {
		t.Errorf("moved = %d on an already packed spectrum", moved)
	}
	// Down connections are skipped.
	c.CutFiber(conn.Route().Links[0])
	_, moved = c.DefragmentSpectrum()
	if moved != 0 {
		t.Errorf("moved a down connection")
	}
	k.Run()
}

func TestDefragAccountsSpectrumExactly(t *testing.T) {
	k, c := newTestbed(t, 122)
	fragmentSpectrum(t, k, c)
	job, _ := c.DefragmentSpectrum()
	k.Run()
	if job.Err() != nil {
		t.Fatal(job.Err())
	}
	// Exactly one channel-link in use (the 1-hop survivor).
	if got := c.Snapshot().ChannelsInUse; got != 1 {
		t.Errorf("channel-links = %d, want 1", got)
	}
}
