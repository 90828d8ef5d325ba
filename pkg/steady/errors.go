package steady

import "errors"

// Sentinel errors returned by New, Spec.Validate and Solve. They are
// wrapped with call-site detail, so match with errors.Is. The HTTP
// service maps all three to 400 Bad Request: they mean the request
// was wrong, not that the solver failed.
var (
	// ErrUnknownProblem reports a Spec.Problem that is not in the
	// problem table (see Problems for the names).
	ErrUnknownProblem = errors.New("steady: unknown problem")
	// ErrNoSuchNode reports a Spec.Root or Spec.Targets entry that the
	// platform being solved does not contain. It surfaces at Solve
	// time, since specs are resolved against each platform anew.
	ErrNoSuchNode = errors.New("steady: no such node")
	// ErrBadSpec reports a structurally invalid Spec: a problem that
	// requires targets given none, a port model the problem does not
	// support, or an undefined PortModel value.
	ErrBadSpec = errors.New("steady: bad spec")
)
