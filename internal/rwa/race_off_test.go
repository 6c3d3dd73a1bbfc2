//go:build !race

package rwa

const raceEnabled = false
