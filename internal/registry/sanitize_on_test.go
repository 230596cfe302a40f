//go:build sanitize

package registry_test

// sanitizeEnabled lets TestDecodeMergeAllocs skip itself: the sanitize
// layer's checks allocate by design (countmin, hll and quantile compare
// a decode in place with a fresh decode of the same frame), so an
// allocation count pins nothing.
const sanitizeEnabled = true
