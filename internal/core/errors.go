package core

import (
	"errors"
	"fmt"
)

// Validation sentinels. Every validation failure returned by the
// injection entry points (Inject/InjectAt/InjectDelete/InjectDeleteAt)
// and the goal front door (ParseGoal, Cluster.Query, serve.Session)
// wraps exactly one of these, so callers dispatch with errors.Is
// instead of grepping message text:
//
//	if errors.Is(err, core.ErrUnknownPredicate) { ... }
//
// The human-readable messages are unchanged from the stringly era —
// the sentinel rides along underneath via ValidationError.
var (
	// ErrBadNode marks a node ID outside [0, n).
	ErrBadNode = errors.New("node out of range")
	// ErrNotGround marks a tuple with an unbound variable.
	ErrNotGround = errors.New("tuple not ground")
	// ErrDerivedPredicate marks an attempt to inject a derived
	// predicate (derived tuples come from rules, never injection).
	ErrDerivedPredicate = errors.New("derived predicate")
	// ErrUnknownPredicate marks a predicate the program never mentions.
	ErrUnknownPredicate = errors.New("unknown predicate")
	// ErrArity marks a predicate name the program declares at a
	// different arity.
	ErrArity = errors.New("arity mismatch")
	// ErrBasePredicate marks a point-query goal naming a base
	// predicate — queries answer derived predicates; base facts are
	// what you inject.
	ErrBasePredicate = errors.New("base predicate")
	// ErrBadGoal marks a goal string that is not a single positive
	// relational literal.
	ErrBadGoal = errors.New("malformed goal")
	// ErrNegationNeedsHead marks a rule New refuses because a negation
	// checked at the head's home node uses a variable the settled head
	// tuple cannot give back (absent, or only inside an evaluated
	// expression such as D + 1).
	ErrNegationNeedsHead = errors.New("negated variable not recoverable from the head")
	// ErrBadNetwork marks a network New refuses to compile onto: one
	// with no nodes, or with a loss rate outside [0, 1) — at 1 no frame
	// is ever delivered, so nothing could be derived.
	ErrBadNetwork = errors.New("unusable network")
)

// ValidationError is a validation failure carrying its sentinel: the
// message is exactly what the stringly fmt.Errorf used to say, and
// Unwrap exposes the Kind for errors.Is / errors.As matching.
type ValidationError struct {
	// Kind is one of the package sentinels (ErrBadNode, ...).
	Kind error
	msg  string
}

// Error returns the full human-readable message.
func (e *ValidationError) Error() string { return e.msg }

// Unwrap exposes the sentinel so errors.Is(err, core.ErrArity) works.
func (e *ValidationError) Unwrap() error { return e.Kind }

// validationErrorf builds a ValidationError with a formatted message.
func validationErrorf(kind error, format string, args ...interface{}) error {
	return &ValidationError{Kind: kind, msg: fmt.Sprintf(format, args...)}
}
