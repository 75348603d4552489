//go:build race

package highlevel

// raceEnabled reports whether the race detector is active; timing tests
// skip themselves under its instrumentation.
const raceEnabled = true
