//go:build race

package core

// raceEnabled reports whether the race detector is compiled in; the
// RoundTripInto zero-allocation assertion skips under race, where
// sync.Pool drops items at random and the pooled payload reallocates.
const raceEnabled = true
