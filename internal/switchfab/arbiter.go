package switchfab

import "fmt"

// Arbiter chooses the order in which a switch considers its inputs when a
// bucket is oversubscribed. Inputs earlier in the order win ties.
//
// The paper's running example (Figure 2) prioritizes inputs by label
// (0, 1, 2, ..., a-1); that is PriorityArbiter. RoundRobinArbiter and
// RandomArbiter are fairness ablations: the closed-form performance model
// of Section 3.2 is arbitration-agnostic (it only counts winners), so all
// three must produce statistically identical acceptance rates — a property
// the simulator test suite checks.
type Arbiter interface {
	// Order returns a permutation of [0, n): the arbitration order for one
	// cycle of a switch with n inputs.
	Order(n int) []int
}

// InPlaceArbiter is an optional extension implemented by arbiters that
// can write their arbitration order into a caller-provided buffer, which
// lets the routing hot path run allocation-free.
type InPlaceArbiter interface {
	Arbiter
	// OrderInto fills order (whose length is the switch's input count)
	// with exactly the permutation Order(len(order)) would return,
	// advancing any internal state identically, so the two entry points
	// are interchangeable cycle for cycle.
	OrderInto(order []int)
}

// ArbitrationOrder returns arb's order for one cycle of an n-input
// switch, nil standing for the natural order 0..n-1. A nil arbiter and
// PriorityArbiter need no order; an InPlaceArbiter fills buf[:n], so the
// call allocates nothing; any other arbiter's Order result must have
// length n.
func ArbitrationOrder(arb Arbiter, n int, buf []int) ([]int, error) {
	switch a := arb.(type) {
	case nil, PriorityArbiter:
		return nil, nil
	case InPlaceArbiter:
		a.OrderInto(buf[:n])
		return buf[:n], nil
	default:
		order := a.Order(n)
		if len(order) != n {
			return nil, fmt.Errorf("switchfab: arbiter returned order of length %d, want %d", len(order), n)
		}
		return order, nil
	}
}

// PriorityArbiter grants competing inputs in increasing input-label order,
// matching the paper's Figure 2 worked example.
type PriorityArbiter struct{}

// Order returns 0, 1, ..., n-1.
func (PriorityArbiter) Order(n int) []int {
	order := make([]int, n)
	PriorityArbiter{}.OrderInto(order)
	return order
}

// OrderInto implements InPlaceArbiter.
func (PriorityArbiter) OrderInto(order []int) {
	for i := range order {
		order[i] = i
	}
}

// RoundRobinArbiter rotates the starting input every cycle so no input is
// persistently favored. It is stateful and not safe for concurrent use by
// multiple goroutines.
type RoundRobinArbiter struct {
	next int
}

// Order returns next, next+1, ..., wrapping mod n, then advances next.
func (r *RoundRobinArbiter) Order(n int) []int {
	order := make([]int, n)
	r.OrderInto(order)
	return order
}

// OrderInto implements InPlaceArbiter.
func (r *RoundRobinArbiter) OrderInto(order []int) {
	n := len(order)
	if n == 0 {
		return
	}
	start := r.next % n
	for i := range order {
		order[i] = (start + i) % n
	}
	r.next = (start + 1) % n
}

// RandomArbiter draws a fresh uniform arbitration order each cycle from a
// caller-supplied permutation source, keeping the package free of any RNG
// dependency. It is not safe for concurrent use.
type RandomArbiter struct {
	// Perm returns a uniform random permutation of [0, n).
	Perm func(n int) []int
}

// Order returns Perm(n).
func (r RandomArbiter) Order(n int) []int {
	if r.Perm == nil {
		return PriorityArbiter{}.Order(n)
	}
	return r.Perm(n)
}
