//go:build !amd64 || purego

package cpufeat

// detect on architectures without dispatched kernels: everything
// portable.
func detect() Features { return Features{} }

// Have reports no feature without reading a variable, so each
// dispatch branch on it is constant-false and eliminated.
func Have() Features { return Features{} }
