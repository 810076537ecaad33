//go:build race

package ghe

// raceEnabled reports a -race build, whose instrumentation allocates on its
// own schedule and makes allocation counts meaningless.
const raceEnabled = true
