package journal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
)

// Payload encodings. The first byte of every frame payload selects the
// format: the legacy JSON envelope begins with '{', the binary encoding with
// binTag. Formats mix freely within one log — a state directory written by
// the JSON era replays through the same reader as one written today, and a
// directory can hold a JSON snapshot with a binary WAL appended after an
// upgrade.
const (
	binTag = 0x01

	// Kind table: the common record kinds collapse to one byte. kindInline
	// escapes any kind the table does not know (varint length + raw name),
	// so new kinds never need a format bump.
	kindInline = 0x00
	kindCommit = 0x01
)

// appendBinaryRecord appends the binary payload for one record:
//
//	binTag | uvarint seq | kind byte [uvarint len | name] | raw data
func appendBinaryRecord(buf []byte, seq uint64, kind string, data []byte) []byte {
	buf = append(buf, binTag)
	buf = binary.AppendUvarint(buf, seq)
	if kind == "commit" {
		buf = append(buf, kindCommit)
	} else {
		buf = append(buf, kindInline)
		buf = binary.AppendUvarint(buf, uint64(len(kind)))
		buf = append(buf, kind...)
	}
	return append(buf, data...)
}

// decodeRecord decodes one frame payload in either format. The returned
// Entry's Data is copied out of the read buffer.
func decodeRecord(payload []byte) (Entry, error) {
	if len(payload) == 0 {
		return Entry{}, fmt.Errorf("empty record payload")
	}
	if payload[0] == '{' {
		var e Entry
		if err := json.Unmarshal(payload, &e); err != nil {
			return Entry{}, fmt.Errorf("corrupt JSON record: %w", err)
		}
		return e, nil
	}
	if payload[0] != binTag {
		return Entry{}, fmt.Errorf("unknown record format byte %#x", payload[0])
	}
	rest := payload[1:]
	seq, n := binary.Uvarint(rest)
	if n <= 0 {
		return Entry{}, fmt.Errorf("corrupt record sequence varint")
	}
	rest = rest[n:]
	if len(rest) == 0 {
		return Entry{}, fmt.Errorf("record truncated before kind byte")
	}
	var kind string
	switch rest[0] {
	case kindCommit:
		kind = "commit"
		rest = rest[1:]
	case kindInline:
		rest = rest[1:]
		klen, n := binary.Uvarint(rest)
		if n <= 0 || uint64(len(rest)-n) < klen {
			return Entry{}, fmt.Errorf("corrupt inline kind")
		}
		kind = string(rest[n : n+int(klen)])
		rest = rest[n+int(klen):]
	default:
		return Entry{}, fmt.Errorf("unknown kind byte %#x", rest[0])
	}
	return Entry{Seq: seq, Kind: kind, Data: append([]byte(nil), rest...)}, nil
}

// appendBinarySnapshotPreamble appends the binary snapshot payload prefix:
//
//	binTag | uvarint seq
//
// followed (by the caller) by the raw snapshot bytes.
func appendBinarySnapshotPreamble(buf []byte, seq uint64) []byte {
	buf = append(buf, binTag)
	return binary.AppendUvarint(buf, seq)
}

// decodeSnapshot decodes a snapshot frame payload in either format,
// returning the covered sequence number and the raw snapshot bytes. A binary
// snapshot's bytes are a sub-slice of payload, not a copy: a restart holds
// the snapshot file in memory once.
func decodeSnapshot(payload []byte) (seq uint64, data []byte, err error) {
	if len(payload) == 0 {
		return 0, nil, fmt.Errorf("empty snapshot payload")
	}
	if payload[0] == '{' {
		var env snapEnvelope
		if err := json.Unmarshal(payload, &env); err != nil {
			return 0, nil, fmt.Errorf("corrupt snapshot envelope: %w", err)
		}
		return env.Seq, env.Data, nil
	}
	if payload[0] != binTag {
		return 0, nil, fmt.Errorf("unknown snapshot format byte %#x", payload[0])
	}
	rest := payload[1:]
	seq, n := binary.Uvarint(rest)
	if n <= 0 {
		return 0, nil, fmt.Errorf("corrupt snapshot sequence varint")
	}
	return seq, rest[n:], nil
}

// snapEnvelope is the legacy JSON snapshot wrapper: snapshot bytes plus the
// WAL sequence they cover.
type snapEnvelope struct {
	Seq  uint64          `json:"seq"`
	Data json.RawMessage `json:"data"`
}
