package memhist

import (
	"errors"
	"fmt"
)

// ErrBadBounds marks user-supplied histogram bounds that violate the
// shape invariants. Before this check existed, unsorted or duplicate
// bounds flowed straight into the neighbour subtraction and produced
// meaningless signed artefacts instead of an error.
var ErrBadBounds = errors.New("invalid histogram bounds")

// ValidateBounds checks histogram interval bounds: at least two,
// strictly ascending (which also forbids duplicates) and nonzero — a
// zero threshold matches every retired load and cannot anchor a
// half-open latency interval. Errors unwrap to ErrBadBounds.
func ValidateBounds(bounds []uint64) error {
	if err := checkBounds(bounds); err != nil {
		return fmt.Errorf("memhist: %w", err)
	}
	return nil
}

// checkBounds is ValidateBounds without the package prefix, for errors
// that wrap it under their own.
func checkBounds(bounds []uint64) error {
	if len(bounds) < 2 {
		return fmt.Errorf("%w: need at least two bounds, got %d", ErrBadBounds, len(bounds))
	}
	if bounds[0] == 0 {
		return fmt.Errorf("%w: bounds must be nonzero (a zero threshold matches every load)", ErrBadBounds)
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] == bounds[i-1] {
			return fmt.Errorf("%w: duplicate bound %d at index %d", ErrBadBounds, bounds[i], i)
		}
		if bounds[i] < bounds[i-1] {
			return fmt.Errorf("%w: bounds must be ascending (bounds[%d]=%d after bounds[%d]=%d)",
				ErrBadBounds, i, bounds[i], i-1, bounds[i-1])
		}
	}
	return nil
}
