package interp

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
)

func almost(a, b float64) bool {
	diff := math.Abs(a - b)
	scale := math.Max(math.Abs(a), math.Abs(b))
	return diff <= 1e-6*math.Max(scale, 1)
}

// fitNewton returns the polynomial through (xs, ys).
func fitNewton(t *testing.T, xs, ys []float64) *Newton {
	t.Helper()
	n := &Newton{}
	if err := n.Fit(xs, ys); err != nil {
		t.Fatal(err)
	}
	return n
}

// refNewton is the incremental construction Fit replaced: each added
// point rebuilt the whole divided-difference table, so a polynomial
// through m points cost O(m^3). It is kept as the specification Fit
// must match bit for bit: Fit's single pass is the last rebuild.
type refNewton struct {
	xs, ys, coef []float64
}

func (n *refNewton) addPoint(x, y float64) error {
	for _, xi := range n.xs {
		if xi == x {
			return ErrDuplicateX
		}
	}
	n.xs = append(n.xs, x)
	n.ys = append(n.ys, y)
	m := len(n.xs)
	n.coef = make([]float64, m)
	row := append([]float64(nil), n.ys...)
	n.coef[0] = row[0]
	for k := 1; k < m; k++ {
		for i := 0; i < m-k; i++ {
			row[i] = (row[i+1] - row[i]) / (n.xs[i+k] - n.xs[i])
		}
		n.coef[k] = row[0]
	}
	return nil
}

func TestNewtonReproducesSupportPoints(t *testing.T) {
	xs := []float64{0, 1, 2.5, 4, 7}
	ys := []float64{3, -1, 0.5, 10, 2}
	n := fitNewton(t, xs, ys)
	for i := range xs {
		if got := n.Eval(xs[i]); !almost(got, ys[i]) {
			t.Errorf("Eval(%v) = %v, want %v", xs[i], got, ys[i])
		}
	}
	if n.Len() != len(xs) {
		t.Errorf("Len = %d, want %d", n.Len(), len(xs))
	}
}

func TestNewtonExactOnPolynomials(t *testing.T) {
	// A polynomial of degree k is reproduced exactly from k+1 points.
	poly := func(coef []float64, x float64) float64 {
		v := 0.0
		for i := len(coef) - 1; i >= 0; i-- {
			v = v*x + coef[i]
		}
		return v
	}
	rng := rand.New(rand.NewSource(3))
	n := &Newton{} // refitted every trial: stale storage must not leak
	for trial := 0; trial < 100; trial++ {
		deg := rng.Intn(5)
		coef := make([]float64, deg+1)
		for i := range coef {
			coef[i] = rng.Float64()*10 - 5
		}
		var xs, ys []float64
		for i := 0; i <= deg; i++ {
			x := float64(i) * 1.5
			xs = append(xs, x)
			ys = append(ys, poly(coef, x))
		}
		if err := n.Fit(xs, ys); err != nil {
			t.Fatal(err)
		}
		for probe := 0; probe < 10; probe++ {
			x := rng.Float64()*20 - 5
			if got, want := n.Eval(x), poly(coef, x); !almost(got, want) {
				t.Fatalf("trial %d: deg %d poly at %v: %v != %v", trial, deg, x, got, want)
			}
		}
	}
}

// TestNewtonIncrementalEqualsBatch pins Fit to the incremental
// AddPoint-loop construction it replaced, bit for bit: coefficients
// and evaluations over random sorted supports of 1-20 points, refitted
// into one reused polynomial whose previous support was larger or
// smaller.
func TestNewtonIncrementalEqualsBatch(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	n := &Newton{}
	for trial := 0; trial < 500; trial++ {
		m := 1 + rng.Intn(20)
		seen := map[float64]bool{}
		var xs []float64
		for len(xs) < m {
			x := math.Round(rng.Float64()*2000) / 4 // grid-like µs values
			if !seen[x] {
				seen[x] = true
				xs = append(xs, x)
			}
		}
		sort.Float64s(xs)
		ys := make([]float64, m)
		for i := range ys {
			ys[i] = rng.Float64()*1e4 - 2e3
		}
		ref := &refNewton{}
		for i := range xs {
			if err := ref.addPoint(xs[i], ys[i]); err != nil {
				t.Fatal(err)
			}
		}
		if err := n.Fit(xs, ys); err != nil {
			t.Fatal(err)
		}
		if n.Len() != m {
			t.Fatalf("trial %d: Len = %d, want %d", trial, n.Len(), m)
		}
		for k := range ref.coef {
			if math.Float64bits(n.coef[k]) != math.Float64bits(ref.coef[k]) {
				t.Fatalf("trial %d (m=%d): coef[%d] = %v, reference %v", trial, m, k, n.coef[k], ref.coef[k])
			}
		}
		refPoly := &Newton{xs: ref.xs, coef: ref.coef}
		for probe := 0; probe < 8; probe++ {
			x := rng.Float64()*600 - 50
			if got, want := n.Eval(x), refPoly.Eval(x); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("trial %d: Eval(%v) = %v, reference %v", trial, x, got, want)
			}
		}
	}
}

func TestNewtonRejectsDuplicateX(t *testing.T) {
	for _, xs := range [][]float64{
		{1, 1},
		{0, 1, 2, 3, 1}, // non-adjacent duplicate
		{-0.0, 5, 0},    // signed zeros are one abscissa
	} {
		n := fitNewton(t, []float64{4, 8}, []float64{1, 2})
		if err := n.Fit(xs, make([]float64, len(xs))); err != ErrDuplicateX {
			t.Fatalf("Fit(%v) = %v, want ErrDuplicateX", xs, err)
		}
		if n.Len() != 0 || n.Eval(3) != 0 {
			t.Errorf("Fit(%v) failed but left %d points", xs, n.Len())
		}
	}
}

func TestNewtonEmptyAndMismatch(t *testing.T) {
	n := &Newton{}
	if got := n.Eval(5); got != 0 {
		t.Errorf("empty polynomial Eval = %v, want 0", got)
	}
	if err := n.Fit(nil, nil); err != nil || n.Len() != 0 {
		t.Errorf("Fit of no points: %v, Len %d", err, n.Len())
	}
	if err := n.Fit([]float64{1}, []float64{}); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

// Property: a Newton polynomial through two points is the straight line
// through them.
func TestNewtonLineProperty(t *testing.T) {
	f := func(x0, y0, y1, probe int16) bool {
		x0f, y0f, y1f := float64(x0), float64(y0), float64(y1)
		x1f := x0f + 10 // distinct abscissae
		var n Newton
		if err := n.Fit([]float64{x0f, x1f}, []float64{y0f, y1f}); err != nil {
			return false
		}
		x := float64(probe)
		want := y0f + (y1f-y0f)*(x-x0f)/10
		return almost(n.Eval(x), want)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// fitLinear returns the piecewise-linear interpolant through (xs, ys).
func fitLinear(xs, ys []float64) (*Linear, error) {
	l := &Linear{}
	return l, l.Fit(xs, ys)
}

func TestLinearInterpolation(t *testing.T) {
	l, err := fitLinear([]float64{0, 10, 20}, []float64{0, 100, 0})
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct{ x, want float64 }{
		{0, 0}, {5, 50}, {10, 100}, {15, 50}, {20, 0},
		{-5, -50}, // extrapolation with the boundary segment
		{25, -50},
	}
	for _, c := range cases {
		if got := l.Eval(c.x); !almost(got, c.want) {
			t.Errorf("Eval(%v) = %v, want %v", c.x, got, c.want)
		}
	}
}

func TestLinearUnsortedInput(t *testing.T) {
	l, err := fitLinear([]float64{20, 0, 10}, []float64{0, 0, 100})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Eval(5); !almost(got, 50) {
		t.Errorf("Eval(5) on unsorted input = %v, want 50", got)
	}
}

func TestLinearDegenerate(t *testing.T) {
	l, err := fitLinear(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Eval(7); got != 0 {
		t.Errorf("empty Linear Eval = %v", got)
	}
	l, err = fitLinear([]float64{3}, []float64{9})
	if err != nil {
		t.Fatal(err)
	}
	if got := l.Eval(100); got != 9 {
		t.Errorf("single-point Linear Eval = %v, want 9", got)
	}
	if _, err := fitLinear([]float64{1, 1}, []float64{2, 3}); err == nil {
		t.Fatal("duplicate x accepted by Linear")
	}
}
