package sim

import (
	"context"
	"errors"

	"repro/pkg/steady"
	"repro/pkg/steady/sim/event"
)

// replayPeriodic executes the exact periodic replay on the event core,
// surfacing a cancellation as the context's error.
func replayPeriodic(ctx context.Context, rp *steady.Replay, periods int64, l *event.Loop) (*event.PeriodicStats, error) {
	st, err := event.RunPeriodic(&event.PeriodicSpec{Platform: rp.Platform, Commodities: rp.Commodities}, periods, event.PeriodicOptions{
		Loop:      l,
		Interrupt: ctx.Done(),
	})
	if err != nil {
		if errors.Is(err, event.ErrInterrupted) && ctx.Err() != nil {
			return nil, ctx.Err()
		}
		return nil, err
	}
	return st, nil
}
