package schedule

import (
	"fmt"

	"repro/internal/core"
)

// ReconstructCards performs the §4.1 construction for the fixed-
// wiring multiport model of §5.1.2: "the schedule can be
// reconstructed (each node in the bipartite graph corresponds to a
// network card)". Slots are matchings over cards, so a node with k
// cards may take part in up to k simultaneous transfers per
// direction, while each platform edge still carries one transfer at a
// time (it lives on exactly one card pair). The schedule remembers
// its wiring, so Check, Grouped and the event core treat it like any
// other.
func ReconstructCards(cs *core.CardSolution) (*Periodic, error) {
	if err := cs.CheckCards(); err != nil {
		return nil, fmt.Errorf("schedule: refusing invalid card solution: %w", err)
	}
	return reconstruct(cs.MasterSlave, cardWiring(cs.P, cs.Assign))
}
