// Checked as griphon/internal/api, beside apiflag: the same appenders, with
// the order fixed first or never reaching them.
package api

import (
	"sort"

	"griphon/internal/jsonenc"
)

func appendNames(b []byte, names []string) []byte {
	return jsonenc.AppendStrings(b, names)
}

// sortedFirst is the fix: a sort between the loop and the appender.
func sortedFirst(b []byte, m map[string]int) []byte {
	var names []string
	for k := range m {
		names = append(names, k)
	}
	sort.Strings(names)
	b = appendNames(b, names)
	return append(b, '\n')
}

// countOnly passes the slice to a function that is not an appender (no
// []byte in and out), and returns only the count it gave.
func countOnly(m map[string]int) int {
	var names []string
	for k := range m {
		names = append(names, k)
	}
	n := total(names)
	return n
}

func total(names []string) int { return len(names) }
