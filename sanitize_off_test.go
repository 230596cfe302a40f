//go:build !sanitize

package mergesum_test

const sanitizeEnabled = false
