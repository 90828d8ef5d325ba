package platform

// PortModel selects the communication model every node of a platform
// operates under: the paper's base model (§2, separate send and
// receive ports, full overlap) or the restricted shared-port model of
// §5.1.1. It is declared here, beside the graph it qualifies, so the
// LP builders and the public facade name one type.
type PortModel int

const (
	// SendAndReceive is the base model: at most one emission and one
	// reception at a time, overlapping with computation.
	SendAndReceive PortModel = iota
	// SendOrReceive shares a single port for emissions and receptions
	// (§5.1.1); schedule reconstruction becomes NP-hard, so only a
	// greedy evaluation is available.
	SendOrReceive
)

func (m PortModel) String() string {
	if m == SendOrReceive {
		return "send-or-receive"
	}
	return "send-and-receive"
}
