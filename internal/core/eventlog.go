package core

import (
	"fmt"
	"strings"

	"griphon/internal/sim"
)

// eventChunkRows is how many audit entries share one chunk. A chunk is
// allocated once at its final size, so the log never reallocates or copies
// what it already holds; only the chunk being filled carries slack.
const eventChunkRows = 512

// eventRow is the stored form of one Event: the connection by reference, the
// kind by table index, the text as an offset into the chunk's text (it ends
// where the next row's begins). Event is materialised from it on read.
type eventRow struct {
	at   sim.Time
	conn *Connection // nil for entries about no connection
	off  uint32
	kind uint16
}

type eventChunk struct {
	rows [eventChunkRows]eventRow
	// text is the rows' texts back to back, set when the chunk fills.
	text string
}

// eventLog is the controller's append-only audit log.
type eventLog struct {
	chunks []*eventChunk
	n      int
	// cur collects the text of the chunk being filled (chunk n/eventChunkRows).
	cur    strings.Builder
	kinds  []string
	kindOf map[string]uint16
}

func (l *eventLog) len() int { return l.n }

func (l *eventLog) append(at sim.Time, conn *Connection, kind, format string, args ...any) {
	k, ok := l.kindOf[kind]
	if !ok {
		if l.kindOf == nil {
			l.kindOf = map[string]uint16{}
		}
		k = uint16(len(l.kinds))
		l.kinds = append(l.kinds, kind)
		l.kindOf[kind] = k
	}
	i := l.n % eventChunkRows
	if i == 0 {
		l.chunks = append(l.chunks, new(eventChunk))
	}
	ch := l.chunks[len(l.chunks)-1]
	ch.rows[i] = eventRow{at: at, conn: conn, off: uint32(l.cur.Len()), kind: k}
	fmt.Fprintf(&l.cur, format, args...)
	l.n++
	if i == eventChunkRows-1 {
		ch.text = strings.Clone(l.cur.String())
		l.cur.Reset()
	}
}

// at materialises entry i. The text shares the log's storage.
func (l *eventLog) at(i int) Event {
	ci, ri := i/eventChunkRows, i%eventChunkRows
	ch := l.chunks[ci]
	text, rows := ch.text, eventChunkRows
	if ci == l.n/eventChunkRows {
		text, rows = l.cur.String(), l.n%eventChunkRows
	}
	r := &ch.rows[ri]
	end := len(text)
	if ri+1 < rows {
		end = int(ch.rows[ri+1].off)
	}
	e := Event{At: r.at, Kind: l.kinds[r.kind], Text: text[r.off:end]}
	if r.conn != nil {
		e.Conn = r.conn.ID
	}
	return e
}

// forConn returns the entries mentioning a connection.
func (l *eventLog) forConn(id ConnID) []Event {
	var out []Event
	for i := 0; i < l.n; i++ {
		if c := l.chunks[i/eventChunkRows].rows[i%eventChunkRows].conn; c != nil && c.ID == id {
			out = append(out, l.at(i))
		}
	}
	return out
}
