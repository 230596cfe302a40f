//go:build sanitize

package core

// Sanitize switches on the runtime invariant layer: built with -tags
// sanitize, every family checks its laws after each update, merge and
// decode and panics where one breaks (DESIGN.md, "The sanitize tag").
// It is the one build tag the families read; their hooks return at
// once on a false constant, so a plain build compiles them to nothing.
const Sanitize = true
