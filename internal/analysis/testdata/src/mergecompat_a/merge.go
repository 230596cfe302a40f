// Package mergecompat_a is the mergecompat fixture: call sites that
// keep or drop the merge error.
package mergecompat_a

import "errors"

var errMismatch = errors.New("mismatched k")

// Good is a summary whose Merge checks its operand.
type Good struct {
	k int
	n uint64
}

func (g *Good) Merge(other *Good) error {
	if other == nil {
		return errors.New("nil operand")
	}
	if g.k != other.k {
		return errMismatch
	}
	g.n += other.n
	return nil
}

// use exercises the call-site rule.
func use(a, b *Good) error {
	a.Merge(b)       // want `result of Merge is dropped`
	_ = a.Merge(b)   // want `result of Merge is assigned to the blank identifier`
	go a.Merge(b)    // want `result of Merge is dropped by go statement`
	defer a.Merge(b) // want `result of Merge is dropped by defer statement`
	if err := a.Merge(b); err != nil {
		return err
	}
	return a.Merge(b)
}
