//go:build !amd64 || purego

package cpufeat

// detect on architectures without dispatched kernels: everything
// portable.
func detect() Features { return Features{} }
