//go:build !sanitize

package registry_test

const sanitizeEnabled = false
