//go:build amd64 && !purego

package cpufeat

// cpuid executes CPUID with the given leaf/subleaf. Implemented in
// detect_amd64.s.
func cpuid(eaxIn, ecxIn uint32) (eax, ebx, ecx, edx uint32)

// xgetbv reads extended control register 0 (XCR0). Only valid when
// CPUID reports OSXSAVE; callers must check first.
func xgetbv() (eax, edx uint32)

// CPUID.1:ECX feature bits.
const (
	cpuidOSXSAVE = 1 << 27
	cpuidAVX     = 1 << 28
)

// CPUID.7.0:EBX feature bits.
const (
	cpuidAVX2 = 1 << 5
	cpuidBMI2 = 1 << 8
)

// XCR0 state-component bits: SSE (XMM) and AVX (YMM) state.
const xcr0AVXState = 0x6

// detect probes the hardware via CPUID. AVX2 additionally requires AVX
// and the OS to save YMM state across context switches (OSXSAVE set and
// XCR0 enabling XMM+YMM), exactly the check the runtime and
// klauspost/cpuid perform.
func detect() Features {
	var f Features
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return f
	}
	_, _, ecx1, _ := cpuid(1, 0)
	var ebx7 uint32
	if maxLeaf >= 7 {
		_, ebx7, _, _ = cpuid(7, 0)
	}
	// BMI2 operates on general-purpose registers only, so unlike AVX it
	// needs no OS save-state check.
	f.BMI2 = ebx7&cpuidBMI2 != 0

	osAVX := false
	if ecx1&cpuidOSXSAVE != 0 {
		lo, _ := xgetbv()
		osAVX = lo&xcr0AVXState == xcr0AVXState
	}
	f.AVX2 = osAVX && ecx1&cpuidAVX != 0 && ebx7&cpuidAVX2 != 0
	return f
}

// Have returns the active feature set: hardware capabilities with the
// ACC_DISABLE_* environment overrides applied, or none after
// SetSIMD(false).
func Have() Features { return active }
