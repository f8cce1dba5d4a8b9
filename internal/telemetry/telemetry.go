// Package telemetry is the repository's instrumentation layer: atomic
// counters and gauges, fixed-bucket log-scale histograms, and a named
// registry whose snapshots serialize to JSON and render as a human
// table. Everything here is dependency-free (stdlib only) and
// allocation-free on the hot path: recording a metric is one or two
// uncontended atomic adds, so instrumented code passes the same 0
// allocs/op gates as uninstrumented code and never changes the bytes it
// produces.
//
// # Enable/disable switches
//
// Instrumentation is on by default and can be turned off two ways:
//
//   - ACC_TELEMETRY=0 (or "false"/"off") in the environment disables
//     every metric at startup; SetEnabled flips it at runtime (tests
//     use this to prove instrumentation is behavior-neutral).
//   - Building with -tags acc_notelemetry compiles the switch to a
//     constant false, so every Enabled() guard — and the instrumentation
//     behind it — is dead-coded out of the binary entirely.
//
// Metric values are monotonic from process start; there is no reset.
// Consumers that want per-run deltas (tests, the bench harness)
// snapshot before and after and take the Delta.
//
// # Naming scheme
//
// Metric names are dot-separated paths, lowercase, with the variable
// part (a codec spec, a stage name) as one path segment:
//
//	codec.<spec>.compress_calls      counter
//	codec.<spec>.compress_ns         histogram
//	stage.<name>.forward_ns          histogram
//	stream.writer.inflight_bytes     gauge
//	simd.<pkg>.<tier>_calls          counter
package telemetry

import (
	"os"
	"strings"
	"sync/atomic"
	"time"
)

// on is the runtime half of the enable switch; the compile-time half is
// the `compiled` constant (see enabled.go / disabled.go).
var on atomic.Bool

func init() {
	on.Store(compiled && !envDisabled(os.Getenv("ACC_TELEMETRY")))
}

// envDisabled reports whether an ACC_TELEMETRY value asks for
// instrumentation off. Unset (or any other value) leaves it on.
func envDisabled(v string) bool {
	switch strings.ToLower(v) {
	case "0", "false", "off", "no":
		return true
	}
	return false
}

// Enabled reports whether instrumentation is recording. When the
// package is compiled out (-tags acc_notelemetry) this is a constant
// false and callers' instrumentation branches are eliminated.
func Enabled() bool { return compiled && on.Load() }

// SetEnabled turns recording on or off at runtime and returns the
// previous state. With the package compiled out it is a no-op.
func SetEnabled(v bool) bool {
	prev := on.Load()
	on.Store(v && compiled)
	return prev
}

// NowNanos returns the current wall clock in nanoseconds, or 0 when
// instrumentation is off — the zero start value makes the paired
// ObserveSince a no-op, so "start := NowNanos(); …; h.ObserveSince(start)"
// costs two branches when disabled.
func NowNanos() int64 {
	if !Enabled() {
		return 0
	}
	return time.Now().UnixNano()
}

// Counter is a monotonically increasing atomic counter. The zero value
// is ready to use; a nil *Counter is safe to record into (and records
// nothing), so optional wiring needs no nil checks at call sites.
type Counter struct {
	name string
	v    atomic.Uint64
}

// Name returns the registry name the counter was created under.
func (c *Counter) Name() string { return c.name }

// Add increments the counter by n.
func (c *Counter) Add(n uint64) {
	if c == nil || !Enabled() {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous atomic value (in-flight bytes, occupancy).
// Like Counter, nil receivers record nothing.
type Gauge struct {
	name string
	v    atomic.Int64
}

// Name returns the registry name the gauge was created under.
func (g *Gauge) Name() string { return g.name }

// Set stores v.
func (g *Gauge) Set(v int64) {
	if g == nil || !Enabled() {
		return
	}
	g.v.Store(v)
}

// Add adjusts the gauge by delta (negative to decrease).
func (g *Gauge) Add(delta int64) {
	if g == nil || !Enabled() {
		return
	}
	g.v.Add(delta)
}

// Value returns the current value.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}
