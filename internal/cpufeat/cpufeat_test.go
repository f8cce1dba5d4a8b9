package cpufeat

import (
	"os"
	"testing"
)

// envMap builds a Getenv-shaped lookup from a literal map.
func envMap(m map[string]string) func(string) string {
	return func(k string) string { return m[k] }
}

// TestDetectImplications: the overrides only ever clear features, so
// the active set never reports a feature the hardware lacks.
func TestDetectImplications(t *testing.T) {
	hw, got := detect(), Have()
	if got.AVX2 && !hw.AVX2 {
		t.Fatalf("active AVX2 without hardware AVX2: active %+v, detected %+v", got, hw)
	}
	if got.BMI2 && !hw.BMI2 {
		t.Fatalf("active BMI2 without hardware BMI2: active %+v, detected %+v", got, hw)
	}
}

// TestSetSIMD: the switch clears every feature, and switching back on
// restores exactly the overridden detection, never a feature detect
// lacks or an ACC_DISABLE_* variable cleared.
func TestSetSIMD(t *testing.T) {
	defer SetSIMD(SetSIMD(true))
	hw := detect()
	want := applyOverrides(hw, os.Getenv)
	if got := Have(); got != want {
		t.Fatalf("SetSIMD(true): active %+v, want detected %+v with overrides", got, want)
	}
	if got := Have(); (got.AVX2 && !hw.AVX2) || (got.BMI2 && !hw.BMI2) {
		t.Fatalf("SetSIMD(true) reports %+v beyond detected %+v", got, hw)
	}
	if prev := SetSIMD(false); prev != (want != Features{}) {
		t.Fatalf("SetSIMD(false) reported previous %v with %+v active", prev, want)
	}
	if got := Have(); got != (Features{}) {
		t.Fatalf("SetSIMD(false) left %+v active", got)
	}
	if SetSIMD(true) {
		t.Fatal("SetSIMD(true) reported a feature active after SetSIMD(false)")
	}
}

func TestOverrideDisableAll(t *testing.T) {
	full := Features{AVX2: true, BMI2: true}
	for _, v := range []string{"1", "true", "TRUE", "yes"} {
		got := applyOverrides(full, envMap(map[string]string{"ACC_DISABLE_SIMD": v}))
		if got != (Features{}) {
			t.Fatalf("ACC_DISABLE_SIMD=%q left features enabled: %+v", v, got)
		}
	}
	for _, v := range []string{"", "0", "false", "FALSE"} {
		got := applyOverrides(full, envMap(map[string]string{"ACC_DISABLE_SIMD": v}))
		if got != full {
			t.Fatalf("ACC_DISABLE_SIMD=%q should be a no-op, got %+v", v, got)
		}
	}
}

func TestOverridePerFeature(t *testing.T) {
	full := Features{AVX2: true, BMI2: true}
	got := applyOverrides(full, envMap(map[string]string{"ACC_DISABLE_AVX2": "1"}))
	if want := (Features{BMI2: true}); got != want {
		t.Fatalf("ACC_DISABLE_AVX2: got %+v, want %+v", got, want)
	}
}
