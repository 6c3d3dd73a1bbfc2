// Checked as griphon/internal/api: its JSON is appended by hand, so the
// shared primitives and the package's own appenders are ordered sinks.
package api

import "griphon/internal/jsonenc"

// appendNames has an appender's shape, so it writes its arguments in order.
func appendNames(b []byte, names []string) []byte {
	return jsonenc.AppendStrings(b, names)
}

// viaAppender: the slice reaches the package's own appender unsorted.
func viaAppender(b []byte, m map[string]int) []byte {
	var names []string
	for k := range m { // want `map iteration order flows into names which reaches a JSON appender call`
		names = append(names, k)
	}
	b = appendNames(b, names)
	return append(b, '\n')
}

// viaPrimitive: the slice reaches a shared primitive unsorted.
func viaPrimitive(b []byte, m map[string]bool) []byte {
	var keys []string
	for k := range m { // want `map iteration order flows into keys which reaches a JSON appender call`
		keys = append(keys, k)
	}
	b = jsonenc.AppendStrings(b, keys)
	return append(b, '\n')
}
