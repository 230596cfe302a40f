package mergetree

import "fmt"

// Topologies names the fold orders Fold runs, in the order Metamorphic
// and the experiments sweep them.
var Topologies = []string{"sequential", "binary", "random", "parallel"}

// Fold returns the fold the named topology runs: Sequential, Binary,
// Random drawing from seed, or Parallel on 4 workers. It panics on a
// name not in Topologies.
func Fold[S any](topology string, seed uint64) func([]S, MergeFunc[S]) (S, error) {
	switch topology {
	case "sequential":
		return Sequential[S]
	case "binary":
		return Binary[S]
	case "random":
		return func(parts []S, merge MergeFunc[S]) (S, error) { return Random(parts, seed, merge) }
	case "parallel":
		return func(parts []S, merge MergeFunc[S]) (S, error) { return Parallel(parts, 4, merge) }
	}
	panic(fmt.Sprintf("mergetree: unknown topology %q", topology))
}

// Metamorphic is the mergeability definition's universal quantifier as
// a test helper: it folds independent clones of parts under every
// merge topology (sequential, balanced binary, seeded random, and
// concurrent) and hands each result to check. A summary family is
// mergeable exactly when check passes for all of them — the guarantee
// may not depend on the merge order.
//
// parts are never consumed; each fold runs on fresh clones. check
// receives the topology name for error reporting and must return an
// error when the merged summary violates the family's guarantee.
func Metamorphic[S any](parts []S, clone func(S) S, merge MergeFunc[S], check func(topology string, merged S) error) error {
	for _, name := range Topologies {
		clones := make([]S, len(parts))
		for i, p := range parts {
			clones[i] = clone(p)
		}
		merged, err := Fold[S](name, 0x5eed_c0ffee)(clones, merge)
		if err != nil {
			return fmt.Errorf("mergetree: %s fold failed: %w", name, err)
		}
		if err := check(name, merged); err != nil {
			return fmt.Errorf("mergetree: %s merge order violates guarantee: %w", name, err)
		}
	}
	return nil
}
