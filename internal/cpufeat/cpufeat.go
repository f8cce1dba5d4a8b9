// Package cpufeat detects the SIMD capabilities of the host CPU at
// startup and exposes them to the kernel-dispatch shims in the codec
// packages (internal/dct, internal/jpegq, internal/zfp, and
// internal/entropy via internal/vecops).
//
// Detection runs once at init. Every kernel package reads Have at its
// dispatch site and calls its assembly directly, and the portable Go
// implementation always remains both the fallback and the semantic
// oracle the dispatched kernels are tested against. Nothing here
// mutates after init except through SetSIMD, the one testing switch
// for every kernel package. Without compiled kernels (non-amd64 or
// purego builds) Have returns the empty set without reading a
// variable, so every dispatch branch folds to the portable path at
// compile time.
//
// # Environment overrides
//
// Detection honours kill-switch environment variables so a binary can
// be forced onto the portable path without rebuilding — for A/B
// benchmarks, for debugging a suspected kernel, and for the golden
// byte-stream suites that must pass with SIMD both on and off:
//
//	ACC_DISABLE_SIMD=1   disable every dispatched kernel (all features)
//	ACC_DISABLE_AVX2=1   report AVX2 as absent
//
// Any value other than the empty string, "0" or "false" counts as set.
package cpufeat

import (
	"os"
	"strings"
)

// Features is the feature set the dispatch shims key on. Only features
// a kernel actually dispatches on are listed; extend as kernels grow.
type Features struct {
	// AVX2 gates the dct, zfp, jpegq and vecops kernels. It implies the
	// OS saves YMM state (checked via XGETBV).
	AVX2 bool
	// BMI2 is a GPR-only extension (SHLX/SHRX/PDEP/...) — no OS state
	// to check. The entropy huf 4-stream decode kernel dispatches on it.
	BMI2 bool
}

// detected is the hardware feature set with the ACC_DISABLE_*
// overrides applied, fixed at init; active is the set Have reports:
// detected, or none after SetSIMD(false).
var detected, active Features

func init() {
	detected = applyOverrides(detect(), os.Getenv)
	active = detected
	publishFeatureGauges()
}

// SetSIMD switches every dispatched kernel off, or back on to the set
// detected at init, and reports whether any feature was active before.
// It never enables a feature the hardware or an ACC_DISABLE_* override
// cleared. It is a testing hook — not safe to call concurrently with
// running kernels.
func SetSIMD(on bool) bool {
	prev := active != Features{}
	active = Features{}
	if on {
		active = detected
	}
	publishFeatureGauges()
	return prev
}

// applyOverrides returns f with the kill-switch environment variables
// applied. get abstracts os.Getenv so tests can inject environments.
func applyOverrides(f Features, get func(string) string) Features {
	set := func(name string) bool {
		v := get(name)
		return v != "" && v != "0" && !strings.EqualFold(v, "false")
	}
	if set("ACC_DISABLE_SIMD") {
		return Features{}
	}
	if set("ACC_DISABLE_AVX2") {
		f.AVX2 = false
	}
	return f
}
