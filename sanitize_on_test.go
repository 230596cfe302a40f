//go:build sanitize

package mergesum_test

// sanitizeEnabled lets allocation pins on per-item paths skip
// themselves: a sanitize build samples its O(size) invariant check
// every so many per-item updates, and the check clones the summary.
const sanitizeEnabled = true
