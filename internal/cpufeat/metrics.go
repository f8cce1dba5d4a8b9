package cpufeat

import "repro/internal/telemetry"

// publishFeatureGauges mirrors the active (post-override) feature set
// into 0/1 telemetry gauges, so a metrics snapshot is self-describing
// about which kernel paths the process could dispatch to. Called from
// this package's init, after overrides are applied, and from SetSIMD.
func publishFeatureGauges() {
	set := func(name string, on bool) {
		g := telemetry.NewGauge("simd.cpufeat." + name)
		if on {
			g.Set(1)
		} else {
			g.Set(0)
		}
	}
	f := Have()
	set("avx2", f.AVX2)
	set("bmi2", f.BMI2)
}
