package builtin

import (
	"errors"
	"fmt"
	"math"

	"repro/internal/datalog/ast"
)

// Thresholds of the spatial/temporal built-ins used by the paper's
// example programs.
const (
	// closeSpatial is the maximum Euclidean distance between two reports
	// for close/2 to hold.
	closeSpatial = 2.0
	// closeTemporalMin/Max bound the (strictly positive) time gap between
	// two consecutive reports on a trajectory.
	closeTemporalMin = 0.0
	closeTemporalMax = 3.0
	// parallelTolerance is the maximum angular difference (radians) for
	// isParallel/2 to hold between two trajectory headings.
	parallelTolerance = 0.2
)

// Standard is the registry the parser, the reference evaluator and the
// distributed engine share: built once, and never registered into after.
// Callers that extend a registry take their own from Default.
var Standard = Default()

// Default returns a fresh registry preloaded with the standard library:
//
//	Functions: dist/2, abs/1, min/2, max/2, len/1, head/1, tail/1
//	Predicates: close/2, isParallel/2, member/2, even/1, odd/1
//
// plus the comparison operators which are always available.
func Default() *Registry {
	r := New()

	r.RegisterFunc("dist", 2, func(a []ast.Term) (ast.Term, error) {
		x1, y1, err := locOf(a[0])
		if err != nil {
			return ast.Term{}, err
		}
		x2, y2, err := locOf(a[1])
		if err != nil {
			return ast.Term{}, err
		}
		return ast.Float64(math.Hypot(x1-x2, y1-y2)), nil
	})

	r.RegisterFunc("abs", 1, func(a []ast.Term) (ast.Term, error) {
		switch a[0].Kind {
		case ast.KindInt:
			if a[0].Int < 0 {
				return ast.Int64(-a[0].Int), nil
			}
			return a[0], nil
		case ast.KindFloat:
			return ast.Float64(math.Abs(a[0].Float)), nil
		}
		return ast.Term{}, fmt.Errorf("abs: non-numeric %s", a[0])
	})

	r.RegisterFunc("min", 2, numericBinary(math.Min))
	r.RegisterFunc("max", 2, numericBinary(math.Max))

	r.RegisterFunc("len", 1, func(a []ast.Term) (ast.Term, error) {
		elems, ok := a[0].ListElems()
		if !ok {
			return ast.Term{}, fmt.Errorf("len: not a list: %s", a[0])
		}
		return ast.Int64(int64(len(elems))), nil
	})

	r.RegisterFunc("head", 1, func(a []ast.Term) (ast.Term, error) {
		elems, ok := a[0].ListElems()
		if !ok || len(elems) == 0 {
			return ast.Term{}, fmt.Errorf("head: empty or non-list: %s", a[0])
		}
		return elems[0], nil
	})

	r.RegisterFunc("tail", 1, func(a []ast.Term) (ast.Term, error) {
		elems, ok := a[0].ListElems()
		if !ok || len(elems) == 0 {
			return ast.Term{}, fmt.Errorf("tail: empty or non-list: %s", a[0])
		}
		return elems[len(elems)-1], nil
	})

	r.RegisterPred("member", 2, func(a []ast.Term) (bool, error) {
		elems, ok := a[1].ListElems()
		if !ok {
			return false, fmt.Errorf("member: not a list: %s", a[1])
		}
		for _, e := range elems {
			if e.Equal(a[0]) {
				return true, nil
			}
		}
		return false, nil
	})

	r.RegisterPred("even", 1, func(a []ast.Term) (bool, error) {
		if a[0].Kind != ast.KindInt {
			return false, fmt.Errorf("even: non-integer %s", a[0])
		}
		return a[0].Int%2 == 0, nil
	})
	r.RegisterPred("odd", 1, func(a []ast.Term) (bool, error) {
		if a[0].Kind != ast.KindInt {
			return false, fmt.Errorf("odd: non-integer %s", a[0])
		}
		return a[0].Int%2 != 0, nil
	})

	// close(R1, R2): R = r(X, Y, T). Two reports can be consecutive points
	// on a trajectory when spatially near and temporally ordered within
	// the allowed gap (Example 2 of the paper).
	r.RegisterPred("close", 2, func(a []ast.Term) (bool, error) {
		x1, y1, t1, err := reportOf(a[0])
		if err != nil {
			return false, err
		}
		x2, y2, t2, err := reportOf(a[1])
		if err != nil {
			return false, err
		}
		dt := t2 - t1
		if dt <= closeTemporalMin || dt > closeTemporalMax {
			return false, nil
		}
		return math.Hypot(x1-x2, y1-y2) <= closeSpatial, nil
	})

	// isParallel(L1, L2): two complete trajectories (lists of reports) are
	// parallel when their overall headings agree within the tolerance and
	// they are not the same trajectory (Example 2).
	r.RegisterPred("isParallel", 2, func(a []ast.Term) (bool, error) {
		if a[0].Equal(a[1]) {
			return false, nil
		}
		h1, err := headingOf(a[0])
		if err != nil {
			return false, err
		}
		h2, err := headingOf(a[1])
		if err != nil {
			return false, err
		}
		d := math.Abs(angleDiff(h1, h2))
		return d <= parallelTolerance, nil
	})

	return r
}

func numericBinary(f func(a, b float64) float64) FuncFunc {
	return func(a []ast.Term) (ast.Term, error) {
		x, xok := a[0].Numeric()
		y, yok := a[1].Numeric()
		if !xok || !yok {
			return ast.Term{}, fmt.Errorf("numeric builtin: non-numeric operands %s, %s", a[0], a[1])
		}
		if a[0].Kind == ast.KindInt && a[1].Kind == ast.KindInt {
			return ast.Int64(int64(f(x, y))), nil
		}
		return ast.Float64(f(x, y)), nil
	}
}

// locOf extracts (x, y) from a location term loc(X, Y) (or any binary
// compound of numerics).
func locOf(t ast.Term) (x, y float64, err error) {
	if t.Kind != ast.KindCompound || len(t.Args) != 2 {
		return 0, 0, fmt.Errorf("dist: not a location term: %s", t)
	}
	x, xok := t.Args[0].Numeric()
	y, yok := t.Args[1].Numeric()
	if !xok || !yok {
		return 0, 0, fmt.Errorf("dist: non-numeric location: %s", t)
	}
	return x, y, nil
}

// reportOf extracts (x, y, t) from a report term r(X, Y, T) (any ternary
// compound of numerics).
func reportOf(t ast.Term) (x, y, ts float64, err error) {
	if t.Kind != ast.KindCompound || len(t.Args) != 3 {
		return 0, 0, 0, fmt.Errorf("close: not a report term: %s", t)
	}
	x, xok := t.Args[0].Numeric()
	y, yok := t.Args[1].Numeric()
	ts, tok := t.Args[2].Numeric()
	if !xok || !yok || !tok {
		return 0, 0, 0, fmt.Errorf("close: non-numeric report: %s", t)
	}
	return x, y, ts, nil
}

// headingOf computes the overall heading of a trajectory list (first to
// last report).
func headingOf(t ast.Term) (float64, error) {
	elems, ok := t.ListElems()
	if !ok || len(elems) < 2 {
		return 0, errors.New("isParallel: trajectory must be a list of >= 2 reports")
	}
	x1, y1, _, err := reportOf(elems[0])
	if err != nil {
		return 0, err
	}
	x2, y2, _, err := reportOf(elems[len(elems)-1])
	if err != nil {
		return 0, err
	}
	return math.Atan2(y2-y1, x2-x1), nil
}

func angleDiff(a, b float64) float64 {
	d := math.Mod(a-b, 2*math.Pi)
	if d > math.Pi {
		d -= 2 * math.Pi
	}
	if d < -math.Pi {
		d += 2 * math.Pi
	}
	return d
}
