package dct

// Dispatched kernel entry points, selected once at init from the
// detected CPU features (see internal/cpufeat, including its
// ACC_DISABLE_* environment overrides). A nil pointer selects the
// portable Go path, which is the semantic oracle: every dispatched
// implementation must produce bit-identical float32 results on the
// same inputs. The row kernels take b = 8; the column kernels take a
// block row of b = 4 or 8.
var (
	fwdBand8 func(dst *float32, dstStride int, src *float32, srcStride int, nblks, cf int, tab *float32, mask *int32)
	invRows8 func(dst *float32, dstStride int, src *float32, srcStride int, rows, nblks, cf int, cols *float32)
	fwdCol   colKernel
	invCol   colKernel
)

// colKernel runs the column pass of one block row (kernel_amd64.go).
type colKernel func(dst *float32, dstStride int, src *float32, srcStride int, cols, b, cf int, tab *float32, mask *int32, tail *int32)

// laneMask[c] has its first c lanes set to all-ones: the load/store
// masks for cf-wide outputs and cols%8-wide column tails.
var laneMask [9][8]int32

func init() {
	for c := 1; c <= 8; c++ {
		for j := 0; j < c; j++ {
			laneMask[c][j] = -1
		}
	}
	if archSIMDAvailable() {
		archEnable()
	}
}

// SIMDAvailable reports whether vectorized kernels are compiled in and
// usable on this CPU (after environment overrides).
func SIMDAvailable() bool { return archSIMDAvailable() }

// SetSIMD forces the vector kernels on or off and reports the previous
// state. Enabling is a no-op when SIMDAvailable is false. It is a
// testing hook — not safe to call concurrently with running transforms.
func SetSIMD(on bool) bool {
	prev := fwdCol != nil
	if on && archSIMDAvailable() {
		archEnable()
	} else {
		fwdBand8, invRows8, fwdCol, invCol = nil, nil, nil, nil
	}
	return prev
}
