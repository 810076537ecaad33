//go:build !race

package ghe

const raceEnabled = false
