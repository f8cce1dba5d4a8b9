package vle

// TwoSided exports twoSided to the package's external benchmarks.
var TwoSided = twoSided
