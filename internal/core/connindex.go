package core

import (
	"slices"
	"strings"

	"griphon/internal/inventory"
)

// connIndex is the controller's connection table: every connection ever made,
// kept in ID order, with the views requests are served from. One invariant
// holds it together: a connection is inserted exactly once (Connect,
// buildPipe, restoreConn) and never removed from all or byCust, so both are
// append-mostly slices that need no re-sorting and a request that lists,
// bills or reports one customer touches that customer's connections only.
//
// IDs order as strings — "C10000" sorts before "C9999" — because that is the
// order snapshots and listings have always had; past the fourth digit an
// insert lands mid-slice instead of at the end.
//
// all and byCust are handed to readers as they stand (view): an append writes
// past every view already handed out and a mid-slice insert moves to a fresh
// array, so a view is a snapshot that never changes under its holder. live
// loses elements in place and is copied out instead.
type connIndex struct {
	// all holds every connection, released and internal included.
	all []*Connection
	// live holds the connections that are not released: the only ones a
	// failure, a repair, an audit or a gauge has to look at.
	live []*Connection
	// byCust holds each customer's customer-visible (non-internal)
	// connections.
	byCust map[inventory.Customer][]*Connection

	// released and internal count the customer connections gone and the
	// carrier connections ever made, so Snapshot need not walk all.
	released, internal int
}

func cmpConnID(conn *Connection, id ConnID) int { return strings.Compare(string(conn.ID), string(id)) }

// insertByID places conn in an ID-ordered slice; the usual case, a fresh ID
// larger than every earlier one, is an append. A mid-slice insert reallocates
// (the clip forces it) rather than shift elements under a view's holder.
func insertByID(s []*Connection, conn *Connection) []*Connection {
	if n := len(s); n == 0 || s[n-1].ID < conn.ID {
		return append(s, conn)
	}
	i, _ := slices.BinarySearchFunc(s, conn.ID, cmpConnID)
	return slices.Insert(slices.Clip(s), i, conn)
}

// view returns s for reading, with no room for the reader to append into the
// index's array.
func view(s []*Connection) []*Connection { return slices.Clip(s) }

func (x *connIndex) get(id ConnID) *Connection {
	if i, ok := slices.BinarySearchFunc(x.all, id, cmpConnID); ok {
		return x.all[i]
	}
	return nil
}

// insert registers a new connection in whatever state it is in.
func (x *connIndex) insert(conn *Connection) {
	x.all = insertByID(x.all, conn)
	if conn.Internal {
		x.internal++
	} else {
		if x.byCust == nil {
			x.byCust = map[inventory.Customer][]*Connection{}
		}
		own := x.byCust[conn.Customer]
		if len(own) > 0 {
			// One copy of the name per customer, not one per request.
			conn.Customer = own[0].Customer
		}
		x.byCust[conn.Customer] = insertByID(own, conn)
	}
	if conn.State != StateReleased {
		x.live = insertByID(x.live, conn)
	} else if !conn.Internal {
		x.released++
	}
}

// retire takes a connection out of the live view. It stays listed for ever.
func (x *connIndex) retire(conn *Connection) {
	if i, ok := slices.BinarySearchFunc(x.live, conn.ID, cmpConnID); ok {
		x.live = slices.Delete(x.live, i, i+1)
		if !conn.Internal {
			x.released++
		}
	}
}
