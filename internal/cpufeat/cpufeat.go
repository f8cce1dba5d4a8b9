// Package cpufeat detects the SIMD capabilities of the host CPU at
// startup and exposes them to the kernel-dispatch shims in the codec
// packages (internal/dct, internal/jpegq, internal/zfp, and
// internal/entropy via internal/vecops).
//
// The package follows the klauspost/compress playbook: detection runs
// once at init, consumers capture the result in package-level function
// pointers, and the portable Go implementation always remains both the
// fallback and the semantic oracle the dispatched kernels are tested
// against. Nothing here mutates after init except through the
// per-package SetSIMD testing hooks.
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

// active is the post-override feature set consumers dispatch on.
var active Features

func init() {
	active = applyOverrides(detect(), os.Getenv)
	publishFeatureGauges()
}

// Have returns the active feature set: hardware capabilities with the
// ACC_DISABLE_* environment overrides applied.
func Have() Features { return active }

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
