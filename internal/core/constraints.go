package core

import (
	"errors"

	"pathenum/internal/automaton"
	"pathenum/internal/graph"
)

// Accumulator defines the accumulative-value constraint of Appendix E
// (Algorithm 7): a commutative, associative binary operation folds per-edge
// values along the path, and a path is a result only if the total passes
// Accept.
type Accumulator struct {
	// Value returns alpha(e) for the edge (from, to).
	Value func(from, to graph.VertexID) float64
	// Combine is the binary operation ⊕; it must be commutative and
	// associative (e.g. sum, product, max).
	Combine func(a, b float64) float64
	// Identity is the initial accumulator value (0 for sum, 1 for product).
	Identity float64
	// Accept decides whether a completed path's total qualifies.
	Accept func(total float64) bool
	// Prune, when non-nil, lets the search drop a partial result early:
	// it receives the partial total and remaining hop budget and returns
	// true when no extension can qualify (only sound for monotone
	// constraints, as §E cautions for negative weights).
	Prune func(partial float64, remainingHops int) bool
}

// SequenceConstraint defines the label-sequence constraint of Appendix E
// (Algorithm 8): edge labels drive a DFA; a path qualifies when the DFA
// ends in an accepting state.
type SequenceConstraint struct {
	// Automaton is the constraint DFA.
	Automaton *automaton.DFA
	// Label returns the action label of the edge (from, to).
	Label func(from, to graph.VertexID) automaton.Label
}

// Errors returned for incomplete constraints in Options.
var (
	ErrBadAccumulator = errors.New("core: accumulator needs Value, Combine and Accept")
	ErrBadSequence    = errors.New("core: sequence constraint needs Automaton and Label")
)

// validateConstraints checks the Appendix-E constraints of opts.
func validateConstraints(opts *Options) error {
	if a := opts.Accumulate; a != nil && (a.Value == nil || a.Combine == nil || a.Accept == nil) {
		return ErrBadAccumulator
	}
	if s := opts.Sequence; s != nil && (s.Automaton == nil || s.Label == nil) {
		return ErrBadSequence
	}
	return nil
}

// dfsConstraints is the Appendix-E extension of one index DFS: the
// accumulator value and automaton state at every depth of the current
// path (Algorithms 7 and 8 share the recursion), stepped per edge and
// checked at emission. Join plans never carry it — a half-side walk has
// no automaton state for the other half — so constrained queries always
// plan DFS; the per-tuple checks here yield exactly the whole-tuple
// post-filter of the join's output (TestConstraintsJoinPostFilterEquivalence).
type dfsConstraints struct {
	acc    *Accumulator
	seq    *SequenceConstraint
	accs   []float64         // accs[d] = accumulated value at depth d
	states []automaton.State // states[d] = automaton state at depth d
}

// newDFSConstraints returns the depth-0 state for a k-hop search, or nil
// when neither constraint is set.
func newDFSConstraints(acc *Accumulator, seq *SequenceConstraint, k int) *dfsConstraints {
	if acc == nil && seq == nil {
		return nil
	}
	c := &dfsConstraints{acc: acc, seq: seq}
	if acc != nil {
		c.accs = make([]float64, k+1)
		c.accs[0] = acc.Identity
	}
	if seq != nil {
		c.states = make([]automaton.State, k+1)
		c.states[0] = seq.Automaton.Start()
	}
	return c
}

// step extends the state at depth d across the edge (v, w), leaving
// budget hops after it. False drops the edge: an invalid automaton
// action (Algorithm 8 line 9) or a monotone prune.
func (c *dfsConstraints) step(d int, v, w graph.VertexID, budget int) bool {
	if a := c.acc; a != nil {
		next := a.Combine(c.accs[d], a.Value(v, w))
		if a.Prune != nil && a.Prune(next, budget) {
			return false
		}
		c.accs[d+1] = next
	}
	if q := c.seq; q != nil {
		next := q.Automaton.Step(c.states[d], q.Label(v, w))
		if next == automaton.Invalid {
			return false
		}
		c.states[d+1] = next
	}
	return true
}

// accepts reports whether the s-t path of depth d qualifies.
func (c *dfsConstraints) accepts(d int) bool {
	if a := c.acc; a != nil && !a.Accept(c.accs[d]) {
		return false
	}
	if q := c.seq; q != nil && !q.Automaton.Accepting(c.states[d]) {
		return false
	}
	return true
}
