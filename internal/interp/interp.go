// Package interp implements Newton divided-difference polynomial
// interpolation. The OBC curve-fitting heuristic (Section 6.2.1)
// interpolates message response times as a function of the dynamic
// segment length; the paper chose a Newton polynomial because it is
// "extremely fast, in particular when recalculating the values after a
// new point has been added to the set Points".
//
// Each fit is one O(m²) divided-difference pass over the m support
// points in the order given (the heuristic passes them in sorted
// support order), written into storage the interpolant keeps and
// reuses. The same support set in the same order therefore gives the
// same coefficients bit for bit, whatever was fitted before, and a
// warm interpolant refits without allocating.
package interp

import (
	"errors"
	"fmt"
	"slices"
	"sort"
)

// Newton is an interpolating polynomial in Newton form. The zero value
// is the empty polynomial; Fit makes it interpolate a support set.
type Newton struct {
	xs   []float64
	coef []float64 // coef[k] = f[x0,...,xk]
	row  []float64 // divided-difference scratch
}

// ErrDuplicateX reports a support set with a repeated abscissa.
var ErrDuplicateX = errors.New("interp: duplicate x")

// Fit makes n the polynomial through (xs[i], ys[i]), reusing n's
// storage. It returns ErrDuplicateX if two xs are equal and leaves n
// empty on any error.
func (n *Newton) Fit(xs, ys []float64) error {
	if len(xs) != len(ys) {
		n.reset()
		return fmt.Errorf("interp: %d xs vs %d ys", len(xs), len(ys))
	}
	m := len(xs)
	n.xs = append(n.xs[:0], xs...)
	n.row = append(n.row[:0], ys...)
	n.coef = slices.Grow(n.coef[:0], m)[:m]
	if m == 0 {
		return nil
	}
	// Level k divides by xs[i+k]-xs[i] for every i, so the levels
	// together compare every pair of abscissae once.
	row := n.row
	n.coef[0] = row[0]
	for k := 1; k < m; k++ {
		for i := 0; i < m-k; i++ {
			d := xs[i+k] - xs[i]
			if d == 0 {
				n.reset()
				return ErrDuplicateX
			}
			row[i] = (row[i+1] - row[i]) / d
		}
		n.coef[k] = row[0]
	}
	return nil
}

func (n *Newton) reset() {
	n.xs, n.coef = n.xs[:0], n.coef[:0]
}

// Len returns the number of support points.
func (n *Newton) Len() int { return len(n.xs) }

// Eval evaluates the polynomial at x using Horner's scheme on the
// Newton form.
func (n *Newton) Eval(x float64) float64 {
	if len(n.coef) == 0 {
		return 0
	}
	m := len(n.coef)
	v := n.coef[m-1]
	for k := m - 2; k >= 0; k-- {
		v = v*(x-n.xs[k]) + n.coef[k]
	}
	return v
}

// Linear interpolates piecewise-linearly through a support set; it is
// used for the slowly varying non-DYN part of the cost function where
// a high-order polynomial would oscillate. The zero value is the empty
// interpolant.
type Linear struct {
	xs []float64
	ys []float64
}

// Fit makes l the piecewise-linear interpolant through (xs[i], ys[i]),
// reusing l's storage. xs need not be sorted. It returns ErrDuplicateX
// if two xs are equal and leaves l empty on any error.
func (l *Linear) Fit(xs, ys []float64) error {
	l.xs, l.ys = l.xs[:0], l.ys[:0]
	if len(xs) != len(ys) {
		return fmt.Errorf("interp: %d xs vs %d ys", len(xs), len(ys))
	}
	l.xs = append(l.xs, xs...)
	l.ys = append(l.ys, ys...)
	sort.Sort(byX{l})
	for i := 1; i < len(l.xs); i++ {
		if l.xs[i] == l.xs[i-1] {
			l.xs, l.ys = l.xs[:0], l.ys[:0]
			return ErrDuplicateX
		}
	}
	return nil
}

type byX struct{ l *Linear }

func (b byX) Len() int           { return len(b.l.xs) }
func (b byX) Less(i, j int) bool { return b.l.xs[i] < b.l.xs[j] }
func (b byX) Swap(i, j int) {
	b.l.xs[i], b.l.xs[j] = b.l.xs[j], b.l.xs[i]
	b.l.ys[i], b.l.ys[j] = b.l.ys[j], b.l.ys[i]
}

// Eval evaluates the interpolant, extrapolating with the boundary
// segments.
func (l *Linear) Eval(x float64) float64 {
	n := len(l.xs)
	switch n {
	case 0:
		return 0
	case 1:
		return l.ys[0]
	}
	i := sort.SearchFloat64s(l.xs, x)
	if i == 0 {
		i = 1
	}
	if i >= n {
		i = n - 1
	}
	x0, x1 := l.xs[i-1], l.xs[i]
	y0, y1 := l.ys[i-1], l.ys[i]
	return y0 + (y1-y0)*(x-x0)/(x1-x0)
}
