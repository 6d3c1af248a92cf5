package sched

import (
	"context"
	"errors"

	"mtbench/internal/core"
)

// StopLoop, returned by a Loop hook, ends the loop without an error
// (the fs.SkipAll idiom).
var StopLoop = errors.New("sched: stop the run loop")

// LoopResult is what a Loop made: its runs, their verdict bugs (run i
// logged as index i+1), the runs with a bug verdict and the steps.
type LoopResult struct {
	Runs int
	core.BugLog
	Detected, Steps int64
}

// Loop is the per-seed run loop every seeded tool shares: up to
// runs executions of body on one pooled Runner, closed on every exit,
// panics included. Before run i it checks ctx, then setup sets the
// run's Strategy, Seed and any Listeners on the loop's copy of cfg.
// Runs skip wall-clock timing. each, if non-nil, sees the Runner's
// pooled Result, overwritten by the next run, so it copies what it
// keeps. A hook's error ends the loop and is returned, except
// StopLoop, which ends it with success; a cancelled ctx returns
// ctx.Err(). Every exit returns the runs made so far.
func Loop(ctx context.Context, runs int, cfg Config, body func(core.T),
	setup func(i int, cfg *Config) error, each func(i int, res *core.Result) error) (out LoopResult, err error) {
	runner := NewRunner()
	defer runner.Close()
	cfg.SkipTiming = true
	for i := 0; i < runs && err == nil; i++ {
		if err = ctx.Err(); err != nil {
			return out, err
		}
		if err = setup(i, &cfg); err != nil {
			break
		}
		res := runner.Start(cfg, body)
		out.Runs++
		out.Steps += res.Steps
		if res.Verdict.Bug() {
			out.Detected++
			out.Add(res, i+1)
		}
		if each != nil {
			err = each(i, res)
		}
	}
	if err == StopLoop {
		err = nil
	}
	return out, err
}
