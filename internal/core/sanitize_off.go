//go:build !sanitize

package core

// Sanitize is false unless built with -tags sanitize; see
// sanitize_on.go.
const Sanitize = false
